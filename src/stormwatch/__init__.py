"""Log analytics for grid-storage services: parse, index, detect, generate."""

__version__ = "0.1.0"
