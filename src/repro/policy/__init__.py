"""Migration decision policies — the paper's "continuing work" (§7)."""
