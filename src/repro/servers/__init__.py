"""DEMOS/MP system processes (paper Figure 2-3).

Switchboard, process manager, memory scheduler, the four-process file
system, and the command interpreter — all ordinary programs reached only
through links, and therefore all migratable.
"""
