"""Multi-view marker-based optical motion capture geometry engine."""
