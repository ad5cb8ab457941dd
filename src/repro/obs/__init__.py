"""Observability: spans, metrics, and machine-readable exporters.

The paper's cost analysis (§6) works because DEMOS/MP could attribute
every byte and message of a migration to a protocol step.  This package
gives the reproduction the same power as a first-class layer:

- :mod:`repro.obs.metrics` — a registry of named counters, gauges and
  histograms that ``net/``, ``kernel/`` and ``policy/`` publish into;
- :mod:`repro.obs.spans` — migration *spans*, a view of the kernels'
  migration cost records: one span per 8-step migration, with
  forwarding hops and link-update messages attached as child events;
- :mod:`repro.obs.exporters` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) and flat JSON metrics snapshots.
"""
