"""Trace records and trace files.

A trace is an ordered list of plain-dict events plus a header dict that the
digest covers (no run sets one).  Everything in a trace is JSON-serializable,
so a trace can be written to disk and read back byte for byte.
Files are line-delimited JSON: one header line, one line per event, and a
final integrity line carrying the event count and a digest of everything
above it.

``EVENT`` is the one table of the event types: the shape of what a check or
the output projection reads of each.  ``validate_events`` holds a trace to
it where it enters from outside, in ``Trace.from_text`` (so ``load``) and
``properties.as_trace``; a trace a ``World`` builds fits by construction.
It also holds a reader's reads to each other: a read's ``base`` is at most
the entries the reader's previous read left it, and its (round, step) is
not below that read's, so a reader's reads come in time order.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_ENCODE_LOOSE = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                 default=repr).encode
# ``JSONEncoder.encode`` builds a C encoder, a float formatter and a
# circular-reference guard on every call; ``canon`` builds its C encoder
# once, from the nine arguments ``JSONEncoder.iterencode`` passes, so its
# text is ``_ENCODER.encode``'s.  The guard (``_MARKERS``) is empty between
# calls; an error can leave entries in it, so ``canon`` then clears it.
# One guard serves every call: ``canon`` runs in one thread at a time.
_MARKERS: dict = {}
if c_make_encoder is not None:
    _CHUNKS = c_make_encoder(
        _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
        _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
        _ENCODER.skipkeys, _ENCODER.allow_nan)
else:
    def _CHUNKS(obj, _indent):
        return (_ENCODER.encode(obj),)


def canon(obj) -> str:
    """Canonical JSON text: sorted keys, no whitespace."""
    try:
        return "".join(_CHUNKS(obj, 0))
    except BaseException:
        _MARKERS.clear()
        raise


def canon_loose(obj) -> str:
    """Canonical text that tolerates non-JSON leaves (used for fingerprints)."""
    return _ENCODE_LOOSE(obj)


def digest(obj) -> str:
    return hashlib.sha256(canon(obj).encode()).hexdigest()


class IntegrityError(Exception):
    pass


# -- the event schema ---------------------------------------------------------

NULL = type(None)


class Kinds(dict):
    """A field naming its object's type: a string adding the fields it maps to."""


class Each:
    """An object whose values all have one shape."""

    def __init__(self, shape):
        self.shape = shape


# A shape is a type; [shape], a list of that shape; a Kinds; an Each; a
# dict of field shapes, an object; or a tuple of these, any one of them
# (the first whose type the value has).  Types match exactly (a bool is no
# int).  A field named with a trailing "?" may be missing.
STATE = ({"seq?": int, "height?": int, "minted_upto?": int,
          "minted_above?": [int], "bal?": Each(int), "nonce?": Each(int)}, NULL)
TX = {"op?": str, "from?": str, "to?": str, "ref?": str, "amt?": int,
      "nonce?": int}
READ_ENTRY = {"kind?": str, "state?": STATE, "txs?": [TX]}
EVENT = {"t": Kinds({
    "input": {"party": str, "payload": {"kind?": Kinds({
        "settle": {"seq?": (int, NULL)}})}},
    "output": {"party": str, "payload": {"kind?": Kinds({
        "read-result": {"base?": int, "executed?": [READ_ENTRY],
                        "settled?": STATE},
        "open-ok": {"state?": STATE}, "settle-ok": {"state?": STATE}})}},
    "corrupt": {"party": str},
    "note": {"party": str, "req?": str},
    "ledger-submit": {"txid": str, "author?": str},
    "ledger-commit": {"txids?": [str]},
}), "round?": int, "step?": int}
# the type a value of each kind of shape has
_TYPE = {list: list, dict: dict, Kinds: str, Each: dict}


def _check(value, shape, step, where):
    """Raise IntegrityError, naming the step, unless ``value`` has ``shape``."""
    for alt in shape if type(shape) is tuple else (shape,):
        if type(value) is _TYPE.get(type(alt), alt):
            break
    else:
        raise IntegrityError(f"step {step}: {where} is malformed")
    if type(alt) is list:
        for i, item in enumerate(value):
            _check(item, alt[0], step, f"{where}[{i}]")
    elif type(alt) is Each:
        for key, item in value.items():
            _check(item, alt.shape, step, f"{where}.{key}")
    elif type(alt) is dict:
        for name, sub in alt.items():
            key = name.rstrip("?")
            if key in value:
                _check(value[key], sub, step, f"{where}.{key}")
                if isinstance(sub, Kinds):
                    _check(value, sub.get(value[key], {}), step, where)
            elif key == name:
                raise IntegrityError(f"step {step}: {where} has no {key!r}")


def validate_events(events):
    """Raise IntegrityError, naming the step, unless each event has the shape
    ``EVENT`` and each read's ``base`` is in [0, the entries its reader saw]
    and its (round, step) is not below its reader's previous read's."""
    shown = {}           # party -> (the entries its last read left it, when)
    for ev in events:
        _check(ev, EVENT, ev.get("step") if type(ev) is dict else None, "event")
        if ev["t"] == "output" and (p := ev["payload"]).get("kind") == "read-result":
            base, at = p.get("base", 0), (ev.get("round", 0), ev.get("step", 0))
            seen, last = shown.get(ev["party"], (0, at))
            if not 0 <= base <= seen:
                raise IntegrityError(f"step {ev.get('step')}: base {base} not in [0, {seen}]")
            if at < last:
                raise IntegrityError(f"step {ev.get('step')}: read at {at} before its reader's read at {last}")
            shown[ev["party"]] = (base + len(p.get("executed", ())), at)


class Trace:
    def __init__(self, header=None):
        self.header = dict(header or {})
        self.events: list[dict] = []
        self.complete = True
        self.observers = []    # fn(ev) per event, e.g. a simulator's sync

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
        """Write the trace file; kept, with ``load``, for the planned
        trace-checking CLI (ROADMAP.md)."""
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
        if not all(isinstance(x, dict) for x in [head, tail, *events]):
            raise IntegrityError("a trace file line is no JSON object")
        if head.pop("l2sim-trace", None) != 1:
            raise IntegrityError("missing or unsupported trace header")
        if not (type(tail.get("end")) is int and "digest" in tail
                and type(tail.get("complete")) is bool):
            raise IntegrityError("missing or malformed integrity line")
        t = cls(header=head)
        t.events = events
        t.complete = tail["complete"]
        if tail["end"] != len(events):
            raise IntegrityError(
                f"event count mismatch: header says {tail['end']}, found {len(events)}")
        if tail["digest"] != t.digest():
            raise IntegrityError("trace digest mismatch")
        validate_events(events)
        return t

    @classmethod
    def load(cls, path) -> "Trace":
        with open(path) as f:
            return cls.from_text(f.read())
