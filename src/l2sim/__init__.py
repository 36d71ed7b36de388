"""Deterministic simulator and property harness for layer-2 settlement protocols.

The package splits into a small runtime (machines, envelopes, rounds, traces),
shared base functionalities (ledger, signature registry, clock), a generic
client-facing interface machine driven by pluggable protocol subroutine
bundles, three protocol instantiations (payment channel with wardens, federated
sidechain, optimistic rollup) over an account model shared by the latter two,
a real-versus-ideal differential harness, and trace predicates for the
security notions.
"""

__version__ = "0.1.0"
