"""End-to-end benchmark of the replica-placement pipeline and service (see README.md)."""
