"""The package version, importable without importing the package."""

__version__ = "0.1.0"
