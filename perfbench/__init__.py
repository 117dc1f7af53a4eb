"""End-to-end and per-layer benchmark of the SWDUAL search service."""
