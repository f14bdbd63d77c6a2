#!/usr/bin/env python3
"""Validate a yewpar event journal (JSONL, schema v1).

Checks, per line:
  - the line parses as a JSON object;
  - the schema version is 1;
  - every field of the v1 schema is present with the right type
    ("parent" may be null, everything else is required and non-null);
  - the event kind is one of the known v1 kinds (an unknown kind on a
    v1 line is a producer bug, not a forward-compatible extension —
    extensions must bump the schema version);
  - the worker events drained from the per-worker rings (task, steal,
    idle, spawn) carry a worker slot.

Checks, per trace:
  - every non-null parent span id resolves to a span that appears as
    the "span" of some event in the same trace, or to span 0 (the job
    root, which only appears as a span on job_start/job_done but is
    always a legal parent).

Exit status: 0 if every line validates and every parent resolves,
1 otherwise. A summary is printed either way.

Usage: validate_journal.py JOURNAL.jsonl [JOURNAL.jsonl ...]
"""

import json
import sys

# field -> allowed JSON types (python types after json.load)
SCHEMA = {
    "v": (int,),
    "trace": (str,),
    "ev": (str,),
    "span": (int,),
    "parent": (int, type(None)),
    "loc": (int,),
    "worker": (int,),
    "ts": (int, float),
    "at": (int, float),
    "dur": (int, float),
    "value": (int,),
    "note": (str,),
}


# Every event kind a v1 producer emits. Keep in sync with the schema
# list in lib/telemetry/journal.mli.
#
# The kinds the per-worker rings record (Recorder.kind), always with a
# worker slot. "bound" is also written by the coordinator, without one.
RING_EVENTS = {"task", "steal", "idle", "bound", "spawn"}
WORKER_ONLY = RING_EVENTS - {"bound"}

# Lifecycle kinds written directly by their owner (runtime, coordinator,
# job server).
KNOWN_EVENTS = RING_EVENTS | {
    "job_start",
    "job_done",
    "witness",
    "spill",
    "lease_issue",
    "lease_retire",
    "lease_revoke",
    "lease_replay",
    "locality_dead",
    "respawn",
    "progress_sample",
    "journal_drop",
    "job_submitted",
    "job_scheduled",
    "job_finished",
}


def validate(path):
    errors = []
    events = 0
    spans = {}  # trace -> set of span ids seen as "span"
    parents = []  # (lineno, trace, parent)
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"{path}:{lineno}: not JSON: {e}")
                continue
            if not isinstance(obj, dict):
                errors.append(f"{path}:{lineno}: not a JSON object")
                continue
            ok = True
            for field, types in SCHEMA.items():
                if field not in obj:
                    errors.append(f"{path}:{lineno}: missing field {field!r}")
                    ok = False
                elif not isinstance(obj[field], types):
                    # bool is a subclass of int in python; reject it.
                    errors.append(
                        f"{path}:{lineno}: field {field!r} has type "
                        f"{type(obj[field]).__name__}"
                    )
                    ok = False
                elif isinstance(obj[field], bool):
                    errors.append(f"{path}:{lineno}: field {field!r} is a bool")
                    ok = False
            for field in obj:
                if field not in SCHEMA:
                    errors.append(f"{path}:{lineno}: unknown field {field!r}")
                    ok = False
            if not ok:
                continue
            if obj["v"] != 1:
                errors.append(f"{path}:{lineno}: schema version {obj['v']} != 1")
                continue
            if obj["ev"] not in KNOWN_EVENTS:
                errors.append(
                    f"{path}:{lineno}: unknown event kind {obj['ev']!r}"
                )
                continue
            if obj["ev"] in WORKER_ONLY and obj["worker"] < 0:
                errors.append(
                    f"{path}:{lineno}: {obj['ev']!r} event without a worker slot"
                )
                continue
            events += 1
            spans.setdefault(obj["trace"], set()).add(obj["span"])
            if obj["parent"] is not None:
                parents.append((lineno, obj["trace"], obj["parent"]))
    resolved = 0
    for lineno, trace, parent in parents:
        if parent == 0 or parent in spans.get(trace, set()):
            resolved += 1
        else:
            errors.append(
                f"{path}:{lineno}: parent span {parent} does not resolve "
                f"in trace {trace!r}"
            )
    print(
        f"{path}: {events} event(s), {len(spans)} trace(s), "
        f"{resolved}/{len(parents)} parent(s) resolve, {len(errors)} error(s)"
    )
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        all_errors.extend(validate(path))
    for err in all_errors:
        print(err, file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
