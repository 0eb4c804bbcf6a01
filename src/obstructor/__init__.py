"""Exact-arithmetic engine for loop-span lifting obstructions of line
bundles on products of curves, with quaternionic endomorphism models.
Import from the modules: ``obstructor`` itself holds only ``__version__``."""

__version__ = "0.1.0"
