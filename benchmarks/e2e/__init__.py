"""End-to-end benchmark of the durable workbook service (see README.md)."""
