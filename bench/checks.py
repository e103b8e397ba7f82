"""Output checks. Each returns a list of failure messages; empty means the
output is correct. They compare program outputs with oracle values and
with identities every correct output must satisfy.

Statistical brackets are 6 sigma wide (plus one count of slack), so a
correct program fails one in about 5e8 checks. A bracket whose lower end
is not above zero could pass an output with no events at all; building
one raises VacuousCheck, since that is a fault in the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import json
import math

from oracle import SessionModel, SweepExpect

Z = 6.0


class VacuousCheck(Exception):
    """A bracket that would accept zero observed events."""


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def bracket(name: str, observed: int, groups) -> list[str]:
    """observed ~ sum of Binomial(n, p) over groups, within Z sigma."""
    mean = math.fsum(n * p for n, p in groups)
    half = Z * math.sqrt(math.fsum(n * p * (1.0 - p) for n, p in groups)) + 1.0
    if mean - half <= 0.0:
        raise VacuousCheck(f"{name}: expected {mean:.2f} +- {half:.2f} admits zero events")
    if abs(observed - mean) > half:
        return [f"{name}: observed {observed}, expected {mean:.1f} +- {half:.1f}"]
    return []


# ---------------------------------------------------------------------------
# Simulation reports


def parse_report(csv_text: str) -> dict[str, str]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != "metric,value":
        raise ValueError("report.csv lacks its metric,value header")
    return dict(line.split(",", 1) for line in lines[1:])


def check_report(csv_text: str, model: SessionModel, trials: int, seed: int) -> list[str]:
    try:
        rep = parse_report(csv_text)
        return _check_report(rep, model, trials, seed)
    except (ValueError, KeyError) as exc:
        return [f"report unreadable: {exc!r}"]


def _check_report(rep: dict[str, str], model: SessionModel, trials: int, seed: int) -> list[str]:
    out: list[str] = []
    n = int(rep["sessions_run"])
    adv = int(rep["adversary_sessions"])
    legit = int(rep["legitimate_sessions"])
    fg = int(rep["false_grants"])
    fd = int(rep["false_denials"])
    full = int(rep["full_grants"])
    basic = int(rep["basic_grants"])
    revoked = int(rep["revocations"])
    false_rev = int(rep["false_revocations"])
    if n != trials:
        out.append(f"sessions_run {n} != {trials} trials")
    if int(rep["seed"]) != seed:
        out.append(f"seed {rep['seed']} != {seed}")
    if adv + legit != n:
        out.append("adversary + legitimate sessions != sessions_run")
    # every full grant is either a false grant or a legitimate session
    # that was not falsely denied
    if full != fg + legit - fd:
        out.append(f"full_grants {full} != false_grants {fg} + legitimate {legit} - false_denials {fd}")

    frac = model.adversary_fraction
    if 0.0 < frac < 1.0:
        out += bracket("adversary_sessions", adv, [(n, frac)])
    elif adv != round(frac * n):
        out.append(f"adversary_sessions {adv} with adversary_fraction {frac}")
    if adv:
        out += bracket("false_grants", fg, [(adv, model.p_grant[True])])
    elif fg:
        out.append(f"{fg} false grants without adversaries")
    out += bracket("false_denials", fd, [(legit, 1.0 - model.p_grant[False])])
    out += bracket("basic_grants", basic,
                   [(adv, model.p_basic[True]), (legit, model.p_basic[False])])

    mean_t = rep["mean_time_to_full_grant"]
    if full and not rel_close(float(mean_t), model.t_full, 1e-12):
        out.append(f"mean_time_to_full_grant {mean_t} != {model.t_full!r}")

    granted = {True: fg, False: full - fg}
    bins: dict[int, int] = {}
    for key, value in rep.items():
        if not key.startswith("revocation_latency["):
            continue
        latency = float(key[len("revocation_latency["):-1])
        c = round(latency / model.interval) - 1
        if not 0 <= c < model.n_checks or not rel_close(latency, (c + 1) * model.interval, 1e-9):
            out.append(f"latency {latency!r} is not a scheduled check")
            continue
        bins[c] = int(value)
    if sum(bins.values()) != revoked:
        out.append(f"latency histogram holds {sum(bins.values())} revocations, report says {revoked}")
    if model.n_checks:
        gone = {a: 1.0 - (1.0 - model.q[a]) ** model.n_checks for a in (True, False)}
        out += bracket("revocations", revoked, [(granted[a], gone[a]) for a in (True, False)])
        if granted[False]:
            out += bracket("false_revocations", false_rev, [(granted[False], gone[False])])
        out += _check_latency_bins(bins, model, granted)
    elif revoked:
        out.append(f"{revoked} revocations without monitoring checks")

    firings: dict[tuple[str, str], int] = {}
    for key, value in rep.items():
        if key.startswith("firings["):
            phase, fid = key[len("firings["):-1].split("][")
            firings[(phase, fid)] = int(value)
    want = {("pre_authentication", fid): n for fid, _ in model.pre}
    want.update({("active_authentication", fid): n for fid in model.counted_before_decision})
    want.update({("active_authentication", fid): full for fid in model.counted_after_decision})
    # each granted session runs every check until it is revoked or the
    # horizon ends; a revocation in bin c ran c + 1 checks
    checks_run = (full - revoked) * model.n_checks + sum((c + 1) * h for c, h in bins.items())
    if checks_run:
        want[("continuous_monitoring", model.monitor_factor)] = checks_run
    want = {k: v for k, v in want.items() if v}
    if firings != want:
        diff = sorted(set(firings.items()) ^ set(want.items()))
        out.append(f"factor firings differ from the event layout: {diff[:6]}")
    return out


def _check_latency_bins(bins: dict[int, int], model: SessionModel, granted: dict[bool, int]) -> list[str]:
    """Each bin c holds sum over groups of G q (1 - q)^c. Bins too thin to
    bracket on their own are pooled into one tail bucket."""
    out: list[str] = []
    pooled_obs, pooled_groups = 0, []
    for c in range(model.n_checks):
        groups = [(granted[a], model.q[a] * (1.0 - model.q[a]) ** c) for a in (True, False) if granted[a]]
        try:
            out += bracket(f"revocation_latency[{c}]", bins.get(c, 0), groups)
        except VacuousCheck:
            pooled_obs += bins.get(c, 0)
            pooled_groups += groups
    if pooled_groups:
        mean = math.fsum(g * p for g, p in pooled_groups)
        try:
            out += bracket("revocation_latency[tail]", pooled_obs,
                           [(g, p) for g, p in pooled_groups])
        except VacuousCheck:
            if pooled_obs > mean + Z * math.sqrt(mean) + 1.0:
                out.append(f"revocation latency tail holds {pooled_obs}, expected {mean:.1f}")
    return out


def check_manifest(files: dict[str, bytes], manifest_text: str) -> list[str]:
    """Every output's sha256 and byte count must match its manifest entry."""
    try:
        outputs = json.loads(manifest_text)["outputs"]
    except (ValueError, KeyError) as exc:
        return [f"manifest unreadable: {exc!r}"]
    out = []
    for name, data in files.items():
        entry = outputs.get(name)
        want = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        if entry != want:
            out.append(f"manifest entry for {name} is {entry}, the file hashes to {want}")
    return out


# ---------------------------------------------------------------------------
# Grant timing


def median_basic_time(model: SessionModel) -> float:
    """Median time to a Basic grant over the adversary/legitimate mix;
    refuses a design whose median sits too close to a boundary."""
    frac = model.adversary_fraction
    mix: dict[float, float] = {}
    for adv, weight in ((True, frac), (False, 1.0 - frac)):
        for t, p in model.basic_times[adv].items():
            mix[t] = mix.get(t, 0.0) + weight * p
    total = math.fsum(mix.values())
    cum = 0.0
    for t in sorted(mix):
        cum += mix[t] / total
        if cum >= 0.5:
            if cum - 0.5 < 0.05 or (cum - mix[t] / total) > 0.45:
                raise VacuousCheck("median time to basic sits on a boundary")
            return t
    raise VacuousCheck("no basic grants")


def check_timing(timing: dict, model: SessionModel, trials: int, budget: float) -> list[str]:
    out: list[str] = []
    frac = model.adversary_fraction
    p_full = frac * model.p_grant[True] + (1.0 - frac) * model.p_grant[False]
    p_basic = frac * model.p_basic[True] + (1.0 - frac) * model.p_basic[False]
    if timing["trials"] != trials:
        out.append(f"time_to_grant trials {timing['trials']} != {trials}")
    out += bracket("time_to_grant full_grants", timing["full_grants"], [(trials, p_full)])
    out += bracket("time_to_grant basic_grants", timing["basic_grants"], [(trials, p_basic)])
    want = {
        "median_time_to_full": model.t_full,
        "median_active_phase": model.t_full - model.pre_end,
        "median_time_to_basic": median_basic_time(model),
    }
    for name, value in want.items():
        if timing[name] != value:
            out.append(f"{name} {timing[name]!r} != {value!r}")
    if timing["over_budget"] != (want["median_active_phase"] > budget):
        out.append("over_budget flag disagrees with the median active phase")
    if timing["degenerate"] != (timing["full_grants"] == 0):
        out.append("degenerate flag disagrees with the full grant count")
    return out


# ---------------------------------------------------------------------------
# Analytics


SWEEP_HEADER = "n,strategy,k,far,frr,log10_far,log10_frr"


def check_sweep(csv_text: str, want: list[SweepExpect]) -> list[str]:
    """want: oracle.sweep_table rows, in output order."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["sweep CSV lacks its header"]
    if len(lines) - 1 != len(want):
        return [f"sweep has {len(lines) - 1} rows, expected {len(want)}"]
    out: list[str] = []
    for line, exp in zip(lines[1:], want):
        out += check_sweep_row(line, exp)
        if len(out) > 5:
            break
    return out


def _log10_ok(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def check_sweep_row(line: str, exp: SweepExpect) -> list[str]:
    parts = line.split(",")
    try:
        n, strategy, k = int(parts[0]), parts[1], int(parts[2])
        far, frr, lfar, lfrr = (float(x) for x in parts[3:7])
    except (IndexError, ValueError):
        return [f"sweep row unreadable: {line!r}"]
    if (n, strategy, k) != (exp.n, exp.strategy, exp.k):
        return [f"sweep row {line!r}: expected n={exp.n} {exp.strategy} k={exp.k}"]
    out = []
    for name, got, glog, rate in (("far", far, lfar, exp.far), ("frr", frr, lfrr, exp.frr)):
        floor = -300.0
        if abs(rate.log10 - floor) < 1e-6:
            continue  # straddles the reporting floor: either side is right
        if rate.log10 > floor:
            if not rel_close(got, rate.value, 1e-9) or not _log10_ok(glog, rate.log10):
                out.append(f"sweep n={n} {strategy} {name}={got!r} log10={glog!r}, "
                           f"closed form {rate.value!r} log10={rate.log10!r}")
        else:
            # below 1e-300 the value reads 0; a pure product keeps its
            # log10, a tail sum has none
            want_log = rate.log10 if rate.product_form else -math.inf
            if got != 0.0 or not (glog == want_log or _log10_ok(glog, want_log)):
                out.append(f"sweep n={n} {strategy} {name}={got!r} log10={glog!r} "
                           f"below the floor, closed-form log10 {rate.log10!r}")
    return out


def check_weighted(got: tuple[float, float, bool, bool], want: tuple[float, float]) -> list[str]:
    far, frr, far_uf, frr_uf = got
    out = []
    if far_uf or frr_uf:
        out.append("compose_weighted flagged underflow on rates far above the floor")
    if not rel_close(far, want[0], 1e-9) or not rel_close(frr, want[1], 1e-9):
        out.append(f"compose_weighted far={far!r} frr={frr!r}, expected {want[0]!r} {want[1]!r}")
    return out


def check_mc(est: dict, trials: int, far: float, frr: float) -> list[str]:
    """est holds far/frr events and values as reported. Both rates must
    see events, so the bracket cannot pass on an estimate of 0."""
    out: list[str] = []
    for name, p in (("far", far), ("frr", frr)):
        events, value, n = est[f"{name}_events"], est[f"{name}_value"], est[f"{name}_trials"]
        if n != trials:
            out.append(f"monte carlo {name} ran {n} trials, asked {trials}")
        if events <= 0:
            out.append(f"monte carlo {name} saw no events")
            continue
        if value != events / n:
            out.append(f"monte carlo {name} value {value!r} != {events}/{n}")
        out += bracket(f"monte carlo {name} events", events, [(trials, p)])
    return out
