"""Bundled example graphs and queries (package data)."""
