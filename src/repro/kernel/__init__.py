"""The DEMOS/MP kernel: processes, links, messages, and migration.

One :class:`~repro.kernel.kernel.Kernel` per machine implements message
delivery (with forwarding addresses and link updates), the syscall engine
that runs generator-based programs, the move-data facility, and the
eight-step migration mechanism.
"""
