"""Simulated inter-machine network.

Topology + lossy channels + a reliable ordered transport: the stand-in for
the Z8000 network and the *published communications* reliable-delivery
substrate the paper assumes.
"""
