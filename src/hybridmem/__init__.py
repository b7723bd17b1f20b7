"""Hybrid DRAM-NVM main-memory simulator with utility-based page placement."""

__version__ = "0.1.0"
