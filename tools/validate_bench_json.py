#!/usr/bin/env python3
"""Validate a BENCH_*.json perf-trajectory record against its schema.

Schema source of truth: src/telemetry/bench_report.hpp. Used by the CI
bench-smoke job; exits nonzero with a per-violation message on failure.

Validates any BENCH_*.json record sharing that schema, including
BENCH_scale.json (which carries the optional "index" and "churn"
sections) and BENCH_search.json (which carries the optional "cache"
section).

Records carrying a top-level "kernels" key (BENCH_kernels.json, written
by bench_micro_kernels) use the kernel schema instead: "bench",
"git_rev" and "timestamp" as above, a non-empty "kernels" list of
{"name", "ns_per_op", "ops"} entries with unique names, an optional
"smoke" bool, optional "simd_isa" (str) / "simd_lanes" (int >= 1)
fields recording the compile-time ISA and its double-lane width, an
optional "twins_equal" bool (the scalar-vs-SIMD twin gate; must be true
when present).

With --baseline OLD.json, kernels present in both records are compared
by ns_per_op: a regression above 15% prints a WARNING, above 50% it is
a validation failure. --warn-only downgrades baseline failures to
warnings (for CI runners whose hardware differs from the baseline's).

Usage: validate_bench_json.py [--baseline OLD.json] [--warn-only] \
           BENCH_search.json
"""
import json
import sys

# Baseline ns/op regression thresholds (fractions of the old figure).
WARN_REGRESSION = 0.15
FAIL_REGRESSION = 0.50

TIERS = ("invariant", "branch", "heuristic", "exact", "cache", "index")


def err(msg, problems):
    problems.append(msg)


def require(doc, key, kind, problems):
    if key not in doc:
        err(f"missing key {key!r}", problems)
        return None
    val = doc[key]
    # bool is an int subclass in Python; reject it explicitly.
    if isinstance(val, bool) or not isinstance(val, kind):
        err(f"key {key!r}: expected {kind}, got {type(val).__name__}",
            problems)
        return None
    return val


def validate_header(doc, problems):
    """The keys every BENCH_*.json record carries."""
    bench = require(doc, "bench", str, problems)
    if bench is not None and not bench:
        err("bench name is empty", problems)

    rev = require(doc, "git_rev", str, problems)
    if rev is not None and rev != "unknown":
        if len(rev) not in (40, 64) or any(
                c not in "0123456789abcdef" for c in rev):
            err(f"git_rev {rev!r} is neither a hex SHA nor 'unknown'",
                problems)

    ts = require(doc, "timestamp", int, problems)
    if ts is not None and ts <= 0:
        err(f"timestamp {ts} is not positive", problems)


def validate_kernels(doc, problems):
    """BENCH_kernels.json: per-kernel ns/op plus the twin gate."""
    validate_header(doc, problems)

    if "smoke" in doc and not isinstance(doc["smoke"], bool):
        err(f"smoke: expected bool, got {type(doc['smoke']).__name__}",
            problems)

    if "simd_isa" in doc:
        isa = require(doc, "simd_isa", str, problems)
        if isa is not None and isa not in ("avx2", "sse2", "neon",
                                           "scalar"):
            err(f"simd_isa {isa!r} is not a known ISA", problems)
    if "simd_lanes" in doc:
        lanes = require(doc, "simd_lanes", int, problems)
        if lanes is not None and lanes < 1:
            err(f"simd_lanes {lanes} is not positive", problems)
    if "twins_equal" in doc:
        if not isinstance(doc["twins_equal"], bool):
            err("key 'twins_equal': expected bool, got "
                f"{type(doc['twins_equal']).__name__}", problems)
        # A record whose scalar and SIMD kernels disagree is not a valid
        # record.
        elif doc["twins_equal"] is False:
            err("twins_equal is false: scalar and SIMD kernels disagreed",
                problems)

    kernels = require(doc, "kernels", list, problems)
    if kernels is not None:
        if not kernels:
            err("kernels list is empty", problems)
        names = set()
        for i, entry in enumerate(kernels):
            if not isinstance(entry, dict):
                err(f"kernels[{i}] is not an object", problems)
                continue
            name = require(entry, "name", str, problems)
            if name is not None:
                if not name:
                    err(f"kernels[{i}].name is empty", problems)
                elif name in names:
                    err(f"kernels[{i}].name {name!r} is duplicated",
                        problems)
                names.add(name)
            ns = require(entry, "ns_per_op", (int, float), problems)
            if ns is not None and ns <= 0:
                err(f"kernels[{i}].ns_per_op {ns} is not positive",
                    problems)
            ops = require(entry, "ops", int, problems)
            if ops is not None and ops <= 0:
                err(f"kernels[{i}].ops {ops} is not positive", problems)
            for extra in sorted(set(entry) - {"name", "ns_per_op", "ops"}):
                err(f"kernels[{i}] has unknown key {extra!r}", problems)


def validate(doc, problems):
    if not isinstance(doc, dict):
        err("top level is not a JSON object", problems)
        return

    if "kernels" in doc:
        validate_kernels(doc, problems)
        return

    validate_header(doc, problems)

    for key in ("threads", "corpus_size", "num_queries"):
        val = require(doc, key, int, problems)
        if val is not None and val <= 0:
            err(f"{key} {val} is not positive", problems)

    qps = require(doc, "qps", (int, float), problems)
    if qps is not None and qps <= 0:
        err(f"qps {qps} is not positive", problems)

    lat = require(doc, "latency_ms", dict, problems)
    if lat is not None:
        for p in ("p50", "p95", "p99"):
            val = require(lat, p, (int, float), problems)
            if val is not None and val < 0:
                err(f"latency_ms.{p} {val} is negative", problems)
        if all(isinstance(lat.get(p), (int, float)) for p in
               ("p50", "p95", "p99")):
            if not lat["p50"] <= lat["p95"] <= lat["p99"]:
                err("latency percentiles are not monotone "
                    f"(p50={lat['p50']}, p95={lat['p95']}, "
                    f"p99={lat['p99']})", problems)

    fractions = require(doc, "tier_fractions", dict, problems)
    if fractions is not None:
        total = 0.0
        complete = True
        for tier in TIERS:
            val = require(fractions, tier, (int, float), problems)
            if val is None:
                complete = False
            elif not 0.0 <= val <= 1.0:
                err(f"tier_fractions.{tier} {val} outside [0, 1]", problems)
            else:
                total += val
        for extra in sorted(set(fractions) - set(TIERS)):
            err(f"tier_fractions has unknown tier {extra!r}", problems)
        # Every candidate pair is settled by exactly one tier, so the
        # fractions partition 1 (up to the 4-decimal serialization).
        if complete and abs(total - 1.0) > 0.01:
            err(f"tier_fractions sum to {total:.4f}, expected 1", problems)

    rate = require(doc, "cache_hit_rate", (int, float), problems)
    if rate is not None and not 0.0 <= rate <= 1.0:
        err(f"cache_hit_rate {rate} outside [0, 1]", problems)

    # Optional sections: absent is fine, present means fully valid.
    if "cache" in doc:
        cache = require(doc, "cache", dict, problems)
        if cache is not None:
            for key in ("repeat_ratio", "warm_hit_rate"):
                val = require(cache, key, (int, float), problems)
                if val is not None and not 0.0 <= val <= 1.0:
                    err(f"cache.{key} {val} outside [0, 1]", problems)
            lookups = require(cache, "warm_lookups", int, problems)
            if lookups is not None and lookups < 0:
                err(f"cache.warm_lookups {lookups} is negative", problems)
            for extra in sorted(set(cache) - {"repeat_ratio",
                                              "warm_hit_rate",
                                              "warm_lookups"}):
                err(f"cache has unknown key {extra!r}", problems)

    if "index" in doc:
        index = require(doc, "index", dict, problems)
        if index is not None:
            keys = ("candidate_fraction", "partition_prune_fraction",
                    "label_prune_fraction")
            for key in keys:
                val = require(index, key, (int, float), problems)
                if val is not None and not 0.0 <= val <= 1.0:
                    err(f"index.{key} {val} outside [0, 1]", problems)
            for extra in sorted(set(index) - set(keys)):
                err(f"index has unknown key {extra!r}", problems)

    if "churn" in doc:
        churn = require(doc, "churn", dict, problems)
        if churn is not None:
            keys = ("insert_ms_p50", "erase_ms_p50", "view_ms_p50")
            for key in keys:
                val = require(churn, key, (int, float), problems)
                if val is not None and val < 0:
                    err(f"churn.{key} {val} is negative", problems)
            for extra in sorted(set(churn) - set(keys)):
                err(f"churn has unknown key {extra!r}", problems)


def kernel_map(doc):
    """name -> ns_per_op over well-formed kernel entries."""
    out = {}
    for entry in doc.get("kernels") or []:
        if not isinstance(entry, dict):
            continue
        name, ns = entry.get("name"), entry.get("ns_per_op")
        if (isinstance(name, str) and name and
                isinstance(ns, (int, float)) and
                not isinstance(ns, bool) and ns > 0):
            out[name] = float(ns)
    return out


def diff_baseline(doc, base, problems, warnings):
    """Per-kernel ns/op regression check against an older record.

    Kernels only one record carries are skipped (new kernels appear,
    retired ones vanish — neither is a regression). Smoke and full
    records share kernel names, so comparing across modes is the
    caller's mistake; a mode mismatch is reported as a warning.
    """
    if doc.get("smoke") != base.get("smoke"):
        warnings.append("baseline smoke mode differs from the record's; "
                        "ns/op figures are not comparable")
        return
    new, old = kernel_map(doc), kernel_map(base)
    for name in sorted(set(new) & set(old)):
        ratio = new[name] / old[name]
        if ratio > 1.0 + FAIL_REGRESSION:
            err(f"kernel {name!r} regressed {ratio:.2f}x vs baseline "
                f"({old[name]:.1f} -> {new[name]:.1f} ns/op, "
                f"limit {1.0 + FAIL_REGRESSION:.2f}x)", problems)
        elif ratio > 1.0 + WARN_REGRESSION:
            warnings.append(
                f"kernel {name!r} slowed {ratio:.2f}x vs baseline "
                f"({old[name]:.1f} -> {new[name]:.1f} ns/op)")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    args = argv[1:]
    baseline_path = None
    warn_only = False
    paths = []
    while args:
        arg = args.pop(0)
        if arg == "--baseline":
            if not args:
                print("--baseline needs a path", file=sys.stderr)
                return 2
            baseline_path = args.pop(0)
        elif arg == "--warn-only":
            warn_only = True
        else:
            paths.append(arg)
    if len(paths) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = paths[0]
    try:
        doc = load(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    problems = []
    warnings = []
    validate(doc, problems)
    if baseline_path is not None:
        try:
            base = load(baseline_path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{baseline_path}: {exc}", file=sys.stderr)
            return 1
        baseline_problems = []
        diff_baseline(doc, base, baseline_problems, warnings)
        if warn_only:
            warnings.extend(baseline_problems)
        else:
            problems.extend(baseline_problems)
    for warning in warnings:
        print(f"{path}: WARNING: {warning}", file=sys.stderr)
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)
    if not problems:
        print(f"{path}: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
