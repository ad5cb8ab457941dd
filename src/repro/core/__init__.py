"""The cluster surface, the one-shard engine, its configuration and the
by-name program registry (the public facade is :mod:`repro`)."""
