#!/usr/bin/env python3
"""CI telemetry-smoke validator.

Checks the artifacts a `parallel_runner --metrics-json --trace` run
produced:

  * the metrics document validates against ci/telemetry_schema.json
    (a mini JSON-Schema interpreter below — stdlib only, supporting the
    subset the schema uses: type/required/properties/items/minimum/
    maximum/$ref into #/definitions), so renaming or dropping an
    exporter field fails CI until the schema is updated with it; the
    schema's minimum/maximum also keep the stall fraction within [0,1];
  * the metrics are internally coherent (shard_queries sum to the shard
    stage's items_in, no Levenshtein block steps without a Levenshtein
    call, no more parse-memo hits than query lines the parse stage
    routed, one checkpoint part per shard per generation written);
  * telemetry.workers equals the number of named trace tracks: one
    run's reader, parse workers and shard consumers, each counted once;
  * the trace document is Chrome-trace shaped: every "X" span carries
    ts/dur/pid/tid/name, spans land within [0, wall * 1.1], and every
    track referenced by a span has a thread_name metadata record.

Usage: check_telemetry_schema.py METRICS_JSON TRACE_JSON [SCHEMA_JSON]
Exits non-zero with a message per violation.
"""

import json
import os
import sys


def resolve_ref(schema_root, ref):
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref: {ref}")
    node = schema_root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def type_ok(value, expected):
    if expected == "object":
        return isinstance(value, dict)
    if expected == "array":
        return isinstance(value, list)
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "string":
        return isinstance(value, str)
    if expected == "boolean":
        return isinstance(value, bool)
    raise ValueError(f"unsupported schema type: {expected}")


def validate(value, schema, schema_root, path, errors):
    if "$ref" in schema:
        schema = resolve_ref(schema_root, schema["$ref"])
    expected = schema.get("type")
    if expected is not None and not type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    if expected == "object":
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key '{key}'")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                validate(value[key], sub, schema_root, f"{path}.{key}", errors)
    elif expected == "array":
        items = schema.get("items")
        if items is not None:
            for i, item in enumerate(value):
                validate(item, items, schema_root, f"{path}[{i}]", errors)
    elif expected == "number":
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} above maximum {schema['maximum']}")


def check_metrics(metrics, schema, errors):
    validate(metrics, schema, schema, "$", errors)
    if errors:
        return
    t = metrics["telemetry"]
    shard_sum = sum(t["shard_queries"])
    shard_stage = next(
        (s for s in t["stages"] if s["name"] == "shard"), None)
    if shard_stage is None:
        errors.append("telemetry.stages: no 'shard' stage")
    elif shard_sum != shard_stage["items_in"]:
        errors.append(
            f"shard_queries sum {shard_sum} != shard items_in "
            f"{shard_stage['items_in']}")
    parse_stage = next(
        (s for s in t["stages"] if s["name"] == "parse"), None)
    if parse_stage is None:
        errors.append("telemetry.stages: no 'parse' stage")
    elif t["parse_memo_hits"] > parse_stage["items_out"]:
        errors.append(
            f"parse_memo_hits {t['parse_memo_hits']} > parse items_out "
            f"{parse_stage['items_out']}")
    checkpoint = next(
        (s for s in t["stages"] if s["name"] == "checkpoint"), None)
    if checkpoint is None:
        errors.append("telemetry.stages: no 'checkpoint' stage")
    else:
        parts = checkpoint["chunks"] * len(t["shard_queries"])
        if checkpoint["items_in"] != parts:
            errors.append(
                f"checkpoint parts {checkpoint['items_in']} != "
                f"{checkpoint['chunks']} generations x "
                f"{len(t['shard_queries'])} shards")
        if checkpoint["items_in"] != t["checkpoint_part_latency"]["count"]:
            errors.append(
                f"checkpoint items_in {checkpoint['items_in']} != "
                "checkpoint_part_latency count "
                f"{t['checkpoint_part_latency']['count']}")
    prefilter = t["prefilter"]
    if prefilter["levenshtein_calls"] == 0 and prefilter["dp_block_steps"]:
        errors.append(
            f"prefilter: {prefilter['dp_block_steps']} dp_block_steps "
            "without a levenshtein call")


def check_trace(trace, errors):
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append("trace: traceEvents missing or empty")
        return
    wall_ns = trace.get("otherData", {}).get("wall_ns")
    if not isinstance(wall_ns, (int, float)) or wall_ns <= 0:
        errors.append("trace: otherData.wall_ns missing or non-positive")
        return
    wall_us = wall_ns / 1000.0
    named_tids = set()
    busy_per_tid = {}
    spans = 0
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_tids.add((event.get("pid"), event.get("tid")))
            continue
        if ph != "X":
            errors.append(f"trace[{i}]: unexpected phase {ph!r}")
            continue
        spans += 1
        for key in ("ts", "dur", "pid", "tid", "name"):
            if key not in event:
                errors.append(f"trace[{i}]: span missing '{key}'")
        ts, dur = event.get("ts", 0), event.get("dur", 0)
        if ts < 0 or dur < 0:
            errors.append(f"trace[{i}]: negative ts/dur ({ts}, {dur})")
        # 10% tolerance: span end timestamps are rounded to whole
        # microseconds and the wall clock stops after the last join.
        if ts + dur > wall_us * 1.1:
            errors.append(
                f"trace[{i}]: span ends at {ts + dur}us, past wall "
                f"{wall_us}us (+10%)")
        if (event.get("pid"), event.get("tid")) not in named_tids:
            errors.append(f"trace[{i}]: tid {event.get('tid')} has no "
                          "thread_name metadata")
        key = (event.get("pid"), event.get("tid"))
        busy_per_tid[key] = busy_per_tid.get(key, 0) + dur
    if spans == 0:
        errors.append("trace: no 'X' spans recorded")
    # A worker's spans never overlap (one chunk at a time), so each
    # track's busy time must fit inside the run's wall time.
    for key, busy in busy_per_tid.items():
        if busy > wall_us * 1.1:
            errors.append(
                f"trace: track {key} busy {busy}us exceeds wall "
                f"{wall_us}us (+10%)")


def check_workers(metrics, trace, errors):
    workers = metrics.get("telemetry", {}).get("workers")
    events = trace.get("traceEvents")
    if not isinstance(workers, (int, float)) or not isinstance(events, list):
        return  # already reported by check_metrics / check_trace
    tracks = {(e.get("pid"), e.get("tid")) for e in events
              if e.get("ph") == "M" and e.get("name") == "thread_name"}
    if workers != len(tracks):
        errors.append(
            f"telemetry.workers {workers} != {len(tracks)} named trace "
            "tracks")


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__)
        return 2
    metrics_path, trace_path = argv[1], argv[2]
    schema_path = argv[3] if len(argv) == 4 else os.path.join(
        os.path.dirname(os.path.abspath(argv[0])), "telemetry_schema.json")
    with open(schema_path) as f:
        schema = json.load(f)
    errors = []
    with open(metrics_path) as f:
        metrics = json.load(f)
    with open(trace_path) as f:
        trace = json.load(f)
    check_metrics(metrics, schema, errors)
    check_trace(trace, errors)
    check_workers(metrics, trace, errors)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    if not errors:
        print(f"telemetry schema OK: {metrics_path}, {trace_path}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
