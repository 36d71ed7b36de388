"""Trace records and trace files.

A trace is an ordered list of plain-dict events plus a header describing how
the run was produced (scenario text, scripts, seed).  Everything in a trace is
JSON-serializable so a run can be written to disk and replayed byte for byte.
Files are line-delimited JSON: one header line, one line per event, and a
final integrity line carrying the event count and a digest of everything
above it.
"""

from __future__ import annotations

import hashlib
import json


# built once: json.dumps builds an encoder on every call that passes options
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_ENCODE_LOOSE = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                 default=repr).encode


def canon(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    return _ENCODE(obj)


def canon_loose(obj) -> str:
    """Canonical text that tolerates non-JSON leaves (used for fingerprints)."""
    return _ENCODE_LOOSE(obj)


def digest(obj) -> str:
    return hashlib.sha256(canon(obj).encode()).hexdigest()


class IntegrityError(Exception):
    pass


class Trace:
    def __init__(self, header=None):
        self.header = dict(header or {})
        self.events: list[dict] = []
        self.complete = True
        self.observers = []

    def emit(self, ev: dict):
        self.events.append(ev)
        for fn in self.observers:
            fn(ev)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(canon(self.header).encode())
        for ev in self.events:
            h.update(b"\n")
            h.update(canon(ev).encode())
        if not self.complete:
            h.update(b"\ntruncated")
        return h.hexdigest()

    def to_text(self) -> str:
        lines = [canon({"l2sim-trace": 1, **self.header})]
        lines.extend(canon(ev) for ev in self.events)
        lines.append(canon({"end": len(self.events), "digest": self.digest(),
                            "complete": self.complete}))
        return "\n".join(lines) + "\n"

    def dump(self, path):
        """Write the trace file; kept, with ``load`` and ``observers``, for
        the planned trace-checking CLI (ROADMAP.md)."""
        with open(path, "w") as f:
            f.write(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "Trace":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise IntegrityError("trace file too short")
        try:
            head = json.loads(lines[0])
            tail = json.loads(lines[-1])
            events = [json.loads(ln) for ln in lines[1:-1]]
        except json.JSONDecodeError as e:
            raise IntegrityError(f"trace file is not line-delimited JSON: {e}")
        if head.pop("l2sim-trace", None) != 1:
            raise IntegrityError("missing or unsupported trace header")
        if "end" not in tail or "digest" not in tail:
            raise IntegrityError("missing integrity line (truncated file?)")
        t = cls(header=head)
        t.events = events
        t.complete = tail.get("complete", True)
        if tail["end"] != len(events):
            raise IntegrityError(
                f"event count mismatch: header says {tail['end']}, found {len(events)}")
        if tail["digest"] != t.digest():
            raise IntegrityError("trace digest mismatch")
        return t

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as f:
            return cls.from_text(f.read())
