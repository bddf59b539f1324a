"""Seeded input generators for the benchmark workloads.

Every generator writes the program's JSONL trace format directly (a header
line, then one JSON object per event, keys in the order the program's own
serializer uses), so the inputs do not depend on any code of the program
under test: a change to the program cannot silently change what it is fed.
Recorded return values come from a shadow of each object's state, so every
trace is a consistent execution.

The shapes follow the workloads the detector is known to be sensitive to:

* ``contended``: 64 threads on 8 dictionaries, thread-private keys with a
  small shared pool and a shared lock on 5% of operations -- wide clocks,
  mostly thread-local data, occasional genuine races.
* ``fanout``: 768 threads mixed by a hypercube gossip prologue (every
  clock ends up full width), then sync-free churn on private keys.
* ``synthetic``: 8 threads, 8 dictionaries, 64 keys each, put/get/size.
* ``tenant_stream``: one small multi-object program over dictionary, set
  and counter objects, the shape of a daemon tenant's trace.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

NIL = {"$nil": True}


class TraceText:
    """Accumulates event records; renders the JSONL text with its header."""

    def __init__(self, root: int = 0):
        self.root = root
        self.lines: List[str] = []
        self.actions = 0
        self.tids = {root}

    def _add(self, record: dict) -> None:
        self.lines.append(json.dumps(record))

    def fork(self, tid: int, child: int) -> None:
        self.tids.add(child)
        self._add({"kind": "fork", "tid": tid, "peer": child})

    def join(self, tid: int, child: int) -> None:
        self._add({"kind": "join", "tid": tid, "peer": child})

    def acquire(self, tid: int, lock: str) -> None:
        self._add({"kind": "acq", "tid": tid, "lock": lock})

    def release(self, tid: int, lock: str) -> None:
        self._add({"kind": "rel", "tid": tid, "lock": lock})

    def invoke(self, tid: int, obj: str, method: str, args: list,
               returns: list) -> None:
        self.tids.add(tid)
        self.actions += 1
        self._add({"kind": "action", "tid": tid, "obj": obj,
                   "method": method, "args": args, "returns": returns})

    @property
    def events(self) -> int:
        return len(self.lines)

    def text(self) -> str:
        header = json.dumps({"repro-trace": 1, "root": self.root,
                             "events": len(self.lines)})
        return header + "\n" + "".join(line + "\n" for line in self.lines)

    def shape(self) -> Dict[str, int]:
        """The counts the program's ``loaded ...`` line must echo."""
        return {"events": self.events, "actions": self.actions,
                "threads": len(self.tids)}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def contended(events: int, seed: int, objects: int = 8, threads: int = 64,
              keys: int = 2, lock_rate: float = 0.05,
              shared_share: float = 0.02,
              put_share: float = 0.9) -> TraceText:
    rng = random.Random(seed)
    out = TraceText()
    tids = list(range(1, threads + 1))
    for tid in tids:
        out.fork(0, tid)
    shadow: List[Dict[str, int]] = [dict() for _ in range(objects)]
    for _ in range(events - threads):
        tid = rng.choice(tids)
        index = rng.randrange(objects)
        locked = rng.random() < lock_rate
        if locked:
            out.acquire(tid, "L")
        if rng.random() < shared_share:
            key = f"s{rng.randrange(keys)}"
        else:
            key = f"t{tid}k{rng.randrange(keys)}"
        if rng.random() < put_share:
            value = rng.randrange(8)
            prev = shadow[index].get(key, NIL)
            shadow[index][key] = value
            out.invoke(tid, f"d{index}", "put", [key, value], [prev])
        else:
            out.invoke(tid, f"d{index}", "get", [key],
                       [shadow[index].get(key, NIL)])
        if locked:
            out.release(tid, "L")
    return out


def fanout(churn: int, seed: int, objects: int = 8, threads: int = 768,
           put_share: float = 0.9) -> TraceText:
    out = TraceText()
    tids = list(range(1, threads + 1))
    for tid in tids:
        out.fork(0, tid)
    # Pairwise lock hand-offs over log2(threads) rounds: concurrent pairs,
    # never a total order, so no clock collapses to an epoch.
    for r in range(max(1, (threads - 1).bit_length())):
        step = 1 << r
        for i in range(threads):
            j = i ^ step
            if j >= threads or i > j:
                continue
            lock = f"m{r}.{i}"
            for tid in (tids[i], tids[j], tids[i]):
                out.acquire(tid, lock)
                out.release(tid, lock)
    rng = random.Random(seed)
    shadow: Dict[Tuple[str, str], int] = {}
    for n in range(churn):
        tid = tids[n % threads]
        obj = f"d{n % objects}"
        key = f"t{tid}"
        if rng.random() < put_share:
            out.invoke(tid, obj, "put", [key, n], [NIL])
            shadow[(obj, key)] = n
        else:
            out.invoke(tid, obj, "get", [key],
                       [shadow.get((obj, key), NIL)])
    return out


def synthetic(events: int, seed: int, objects: int = 8, threads: int = 8,
              keys: int = 64, lock_rate: float = 0.05) -> TraceText:
    rng = random.Random(seed)
    out = TraceText()
    tids = list(range(1, threads + 1))
    for tid in tids:
        out.fork(0, tid)
    shadow: List[Dict[str, int]] = [dict() for _ in range(objects)]
    for _ in range(events - threads):
        tid = rng.choice(tids)
        index = rng.randrange(objects)
        obj = f"d{index}"
        locked = rng.random() < lock_rate
        if locked:
            out.acquire(tid, "L")
        roll = rng.random()
        if roll < 0.6:
            key = f"k{rng.randrange(keys)}"
            value = rng.randrange(8)
            prev = shadow[index].get(key, NIL)
            shadow[index][key] = value
            out.invoke(tid, obj, "put", [key, value], [prev])
        elif roll < 0.9:
            key = f"k{rng.randrange(keys)}"
            out.invoke(tid, obj, "get", [key],
                       [shadow[index].get(key, NIL)])
        else:
            out.invoke(tid, obj, "size", [], [len(shadow[index])])
        if locked:
            out.release(tid, "L")
    return out


_TENANT_KINDS = ("dictionary", "set", "counter")


def _tenant_op(kind: str, state, rng: random.Random):
    """One invocation against a shadow state: (method, args, returns)."""
    if kind == "dictionary":
        method = rng.choice(("put", "put", "get", "size"))
        if method == "size":
            return method, [], [len(state)]
        key = rng.choice("abc")
        prev = state.get(key, NIL)
        if method == "get":
            return method, [key], [prev]
        value = rng.choice((1, 2))
        state[key] = value
        return method, [key, value], [prev]
    if kind == "set":
        method = rng.choice(("add", "add", "remove", "contains", "size"))
        if method == "size":
            return method, [], [len(state)]
        element = rng.choice((1, 2, 3))
        present = element in state
        if method == "add":
            state.add(element)
            return method, [element], [0 if present else 1]
        if method == "remove":
            state.discard(element)
        return method, [element], [1 if present else 0]
    # counter: the state is a one-element list so it can be mutated
    if rng.random() < 0.6:
        delta = rng.choice((1, 2, -1))
        state[0] += delta
        return "add", [delta], []
    return "read", [], [state[0]]


def tenant_stream(seed: int, min_ops: int = 10, max_ops: int = 60
                  ) -> Tuple[TraceText, Dict[str, str]]:
    """One tenant's trace and its ``name -> kind`` bindings."""
    rng = random.Random(seed)
    kinds = [rng.choice(_TENANT_KINDS) for _ in range(rng.randint(1, 3))]
    threads = rng.randint(1, 4)
    ops = rng.randint(min_ops, max_ops)
    lock_rate = rng.choice((0.0, 0.3, 1.0))
    join_all = rng.random() < 0.6
    bindings = {f"o{i}": kind for i, kind in enumerate(kinds)}
    states = {name: ({} if kind == "dictionary" else
                     set() if kind == "set" else [0])
              for name, kind in bindings.items()}
    names = list(bindings)
    out = TraceText()
    tids = list(range(1, threads + 1))
    for tid in tids:
        out.fork(0, tid)
    remaining = {tid: ops for tid in tids}
    while any(remaining.values()):
        tid = rng.choice([t for t, n in remaining.items() if n])
        name = rng.choice(names)
        locked = rng.random() < lock_rate
        if locked:
            out.acquire(tid, "L")
        method, args, returns = _tenant_op(bindings[name], states[name], rng)
        out.invoke(tid, name, method, args, returns)
        if locked:
            out.release(tid, "L")
        remaining[tid] -= 1
    if join_all:
        for tid in tids:
            out.join(0, tid)
        name = rng.choice(names)
        method, args, returns = _tenant_op(bindings[name], states[name], rng)
        out.invoke(0, name, method, args, returns)
    return out, bindings


#: Input sizes.  ``full`` is what the timed and traced runs use; ``tiny``
#: serves the self-check, which only proves the plumbing end to end.  The
#: full sizes keep one operation under about two seconds: host speed on a
#: shared machine drifts over seconds, and a run's figures are steadier
#: when they aggregate many short operations than a few long ones.
SIZES = {
    "full": {"contended_events": 25_000, "fanout_churn": 30_000,
             "fanout_threads": 768, "synthetic_events": 2_000,
             "synthetic_traces": 12, "live_scale": 4, "streams": 256},
    "tiny": {"contended_events": 2_000, "fanout_churn": 1_000,
             "fanout_threads": 64, "synthetic_events": 300,
             "synthetic_traces": 2, "live_scale": 0.25, "streams": 12},
}


def _synthetic_set(size: dict, seed: int) -> List[TraceText]:
    # Prediction cost varies from trace to trace, so a run cycles through
    # several traces drawn from the seed: its figures then describe the
    # seed's population of traces rather than one draw.
    rng = random.Random(seed)
    return [synthetic(size["synthetic_events"], rng.randrange(1 << 30))
            for _ in range(size["synthetic_traces"])]


TRACE_SHAPES = {
    "offline-contended": lambda size, seed: [contended(
        size["contended_events"], seed)],
    "sharded-fanout": lambda size, seed: [fanout(
        size["fanout_churn"], seed, threads=size["fanout_threads"])],
    "predict-synthetic": _synthetic_set,
}


def _mid_frame_cut(text: str, rng: random.Random) -> int:
    """A byte offset strictly inside one event record (never at a line
    boundary) after at least one complete event, so the server sees a
    torn frame and has a checkpoint to resume from."""
    data = text.encode("utf-8")
    starts = [0]
    for index, byte in enumerate(data):
        if byte == 0x0A:
            starts.append(index + 1)
    line = rng.randrange(2, len(starts) - 1)
    start, end = starts[line], starts[line + 1] - 1
    return rng.randint(start + 1, end - 1)


def build(workload: str, seed: int, size_name: str, directory: str) -> dict:
    """Write one workload's inputs under ``directory``; its manifest.

    The manifest carries the SHA-256 of the input bytes the program will
    receive, plus what the checks need to know about them.
    """
    size = SIZES[size_name]
    if workload in TRACE_SHAPES:
        traces, hasher = [], hashlib.sha256()
        for index, trace in enumerate(TRACE_SHAPES[workload](size, seed)):
            text = trace.text()
            path = f"{directory}/{workload}-{seed}-{index}.jsonl"
            with open(path, "w", encoding="utf-8") as out:
                out.write(text)
            hasher.update(text.encode("utf-8"))
            traces.append({"path": path, "shape": trace.shape(),
                           "bytes": len(text.encode("utf-8"))})
        return {"workload": workload, "traces": traces,
                "input_sha256": hasher.hexdigest()}
    if workload == "live-table2":
        params = {"benchmark": "ComplexConcurrency", "seed": seed,
                  "scale": size["live_scale"]}
        return {"workload": workload, "params": params,
                "input_sha256": digest(json.dumps(params, sort_keys=True))}
    if workload == "daemon-ingest":
        rng = random.Random(seed)
        path = f"{directory}/{workload}-{seed}.jsonl"
        records = []
        for _ in range(size["streams"]):
            trace, bindings = tenant_stream(rng.randrange(1 << 30))
            text = trace.text()
            records.append(json.dumps({
                "bindings": bindings, "text": text, "events": trace.events,
                "cut": _mid_frame_cut(text, rng)}, sort_keys=True))
        body = "".join(record + "\n" for record in records)
        with open(path, "w", encoding="utf-8") as out:
            out.write(body)
        return {"workload": workload, "streams": path,
                "input_sha256": digest(body)}
    raise ValueError(f"unknown workload {workload!r}")
