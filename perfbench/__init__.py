"""Real-CPU benchmark of the rebalancing service (see README.md)."""
