"""Batch experiment runner with machine-readable reports.

Each subcommand builds the system, runs one verification suite and writes
a JSON report embedding the effective configuration. Reports contain only
exact data (rationals as "p/q" strings) and are byte-identical for
identical configuration and seed. Exit status: 0 when every check passed,
1 when a claimed property failed (the report is still written), 2 for
invalid input.
"""

from __future__ import annotations

import json
import random
import sys as _sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import click

from nexpansive import __version__
from nexpansive.base import BiSeq, periodic_point
from nexpansive.space import (VARIANTS, AugSystem, BasePoint, ExtraPoint,
                              aug_dist)
from nexpansive.expansivity import (
    ExpansivityCertificate,
    check_expansivity,
    dynamic_ball,
    lower_expansivity_falsifier,
    stable_class_count,
    orbit_stable_inclusion_failures,
)
from nexpansive.chains import build_chain_graph, chain_classes
from nexpansive.chains import edges_csv as chain_edges_csv
from nexpansive.shadowing import (
    ScheduleError,
    limit_shadow,
    shadow_modulus,
    shadow_pseudo_orbit,
    two_sided_limit_shadow,
    verify_shadow,
)
from nexpansive.samples import (
    construction_sample,
    drifting_two_sided_orbit,
    hop_pseudo_orbit,
    random_triple,
    switching_limit_orbit,
)
from nexpansive.codec import encode


# Upper limits of the tracing sizes. At each limit, with the other flags at
# their defaults, one run took 0.2-2.2 s and at most 62 MiB on a 2-vCPU
# Xeon, which stays under 10 s in that host's 1.6x slow spells.
MAX_DELTA_EXP = 16
MAX_LENGTH = 8000
MAX_STAGES = 15
# Below 8 stages the switching schedule supports fewer than the three
# stages limit_shadow needs, whatever the words.
MIN_STAGES = 8
MAX_HALF = 8192


def _parse_point(text):
    """Point syntax: extra:i,k,j | periodic:k[,j] | base:L,CORE,R,OFFSET | zeros."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "zeros":
            return BasePoint(BiSeq("0"))
        if kind == "extra":
            i, k, j = (int(v) for v in rest.split(","))
            return ExtraPoint(i, k, j)
        if kind == "periodic":
            parts = rest.split(",")
            k = int(parts[0])
            j = int(parts[1]) if len(parts) > 1 else 0
            return BasePoint(periodic_point(k).shift(j))
        if kind == "base":
            left, core, right, offset = rest.split(",")
            return BasePoint(BiSeq(left, core, right, int(offset)))
    except (ValueError, IndexError) as exc:
        raise click.UsageError(f"bad point spec {text!r}: {exc}") from None
    raise click.UsageError(f"unknown point kind {kind!r}")


def _fraction_arg(text, name):
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"bad rational for {name}: {text!r}") from None


_OVERRIDE_TYPES = {"integer": int, "integer range": int, "text": str,
                   "choice": str}


def _checked_overrides(overrides, flags):
    """Config overrides, each checked against the type of its own flag."""
    if not isinstance(overrides, dict):
        raise click.UsageError("config must map flag names to values")
    ctx = click.get_current_context()
    options = {opt.name: opt for opt in ctx.command.params}
    for name, value in overrides.items():
        if name not in flags:
            raise click.UsageError(f"config key {name!r} names no flag of "
                                   f"{ctx.command.name}")
        opt = options[name]
        if value is None and opt.default is None and not opt.required:
            continue
        if type(value) is not _OVERRIDE_TYPES[opt.type.name]:
            raise click.UsageError(f"config value {name}={value!r} is not "
                                   f"of type {opt.type.name}")
        opt.type.convert(value, opt, ctx)
    return overrides


@contextmanager
def _invalid_input():
    """Report the library's ValueError for bad input as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None


class _Run:
    """Per-command state built from the invoked command's flags: system,
    config echo, output directory; the report is named after the command."""

    def __init__(self, n, variant, k_max, out, config, **params):
        self.command = click.get_current_context().command.name
        system = {"n": n, "variant": variant, "k_max": k_max}
        self.params = dict(params)
        if config is not None:
            try:
                overrides = json.loads(Path(config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise click.UsageError(f"cannot read config: {exc}") from None
            if isinstance(overrides, dict):
                system.update(
                    _checked_overrides(overrides.pop("system", {}), system))
            self.params.update(_checked_overrides(overrides, self.params))
        with _invalid_input():
            self.system = AugSystem(**system)
        self.out = Path(out)

    def param(self, name):
        return self.params[name]

    def fraction(self, name):
        return _fraction_arg(self.params[name], name)

    def fractions(self, name):
        """A comma-separated list of rationals, as a tuple."""
        return tuple(_fraction_arg(t, name) for t in self.params[name].split(","))

    def emit(self, payload, ok):
        report = {
            "command": self.command,
            "version": __version__,
            "config": encode({"system": self.system, **self.params}),
            "ok": ok,
            "result": encode(payload),
        }
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / f"{self.command}.json"
        path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
        click.echo(f"{self.command}: {'ok' if ok else 'FAILED'} -> {path}")
        if not ok:
            _sys.exit(1)


def _system_options(fn):
    fn = click.option("--n", default=3, show_default=True,
                      help="expansivity level of the construction")(fn)
    fn = click.option("--variant", default="standard", show_default=True,
                      type=click.Choice(VARIANTS))(fn)
    fn = click.option("--k-max", default=50, show_default=True,
                      help="enumeration bound for satellite levels")(fn)
    fn = click.option("--out", default="reports", show_default=True,
                      help="directory for report files")(fn)
    fn = click.option("--config", default=None,
                      help="JSON file overriding flags")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Exact verification experiments for the augmented shift construction."""


@main.command()
@_system_options
@click.option("--k-hi", default=12, show_default=True,
              type=click.IntRange(min=1))
def construct(**flags):
    """Enumerate the system and report structural counts."""
    run = _Run(**flags)
    sys = run.system
    k_hi = run.param("k_hi")
    with _invalid_input():
        pts = sys.extra_points(k_hi)
    per_level = {k: sum(1 for p in pts if p.k == k) for k in range(1, k_hi + 1)}
    ok = len(pts) == sys.extra_count(k_hi) == len(set(pts))
    payload = {
        "satellites": len(pts),
        "closed_form": sys.extra_count(k_hi),
        "per_level": per_level,
        "periods": {k: periodic_point(k).least_period()
                    for k in range(1, k_hi + 1)},
    }
    run.emit(payload, ok)


@main.command()
@_system_options
@click.option("--center", required=True, help="point spec, e.g. extra:1,5,0")
@click.option("--radius", required=True, help="exact rational p/q")
@click.option("--k-hi", default=None, type=click.IntRange(min=1))
@click.option("--mode", default="exact", type=click.Choice(["exact", "horizon"]),
              show_default=True)
@click.option("--horizon", default=32, show_default=True)
def ball(**flags):
    """Compute one dynamic ball."""
    run = _Run(**flags)
    with _invalid_input():
        report = dynamic_ball(run.system, _parse_point(run.param("center")),
                              run.fraction("radius"), k_hi=run.param("k_hi"),
                              mode=run.param("mode"),
                              horizon=run.param("horizon"))
    run.emit(report, ok=True)


@main.command()
@_system_options
@click.option("--c", default="1/4", show_default=True,
              help="expansivity radius to certify at")
@click.option("--k-hi", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=7, show_default=True)
@click.option("--random-count", default=100, show_default=True,
              type=click.IntRange(min=0))
def expansivity(**flags):
    """Certify the level bound and falsify the next lower one."""
    run = _Run(**flags)
    sys = run.system
    radius = run.fraction("c")
    k_hi = run.param("k_hi")
    with _invalid_input():
        sample = construction_sample(sys, extras_k_hi=k_hi,
                                     orbits_k_hi=min(k_hi, 12),
                                     random_count=run.param("random_count"),
                                     seed=run.param("seed"))
        cert = check_expansivity(sys, radius, sample)
    payload = {"certificate": cert, "sample_size": len(sample)}
    ok = isinstance(cert, ExpansivityCertificate)
    if sys.variant == "standard" and sys.n >= 2:
        with _invalid_input():
            falsifiers = [lower_expansivity_falsifier(sys, r)
                          for r in (radius, radius / 2, radius / 4)]
        payload["lower_bound_falsifiers"] = falsifiers
        ok = ok and all(len(f.members) == sys.n for f in falsifiers)
    run.emit(payload, ok)


@main.command()
@_system_options
@click.option("--eps", default="1/4", show_default=True)
@click.option("--delta-exp", default=6, show_default=True,
              type=click.IntRange(1, MAX_DELTA_EXP),
              help="jump bound 2**-delta_exp for generated pseudo-orbits")
@click.option("--orbits", default=20, show_default=True,
              type=click.IntRange(min=1))
@click.option("--length", default=100, show_default=True,
              type=click.IntRange(1, MAX_LENGTH))
@click.option("--seed", default=7, show_default=True)
def shadow(**flags):
    """Trace seeded wandering pseudo-orbits and verify the error bound."""
    run = _Run(**flags)
    eps = run.fraction("eps")
    rng = random.Random(run.param("seed"))
    with _invalid_input():
        mod = shadow_modulus(eps)
    checks = []
    for index in range(run.param("orbits")):
        with _invalid_input():
            po = hop_pseudo_orbit(run.system, rng, length=run.param("length"),
                                  delta_exp=run.param("delta_exp"))
            chk = verify_shadow(po, shadow_pseudo_orbit(po, eps), eps)
        checks.append({"orbit": index, "ok": chk.ok,
                       "worst_index": chk.worst_index,
                       "worst_dist": chk.worst_dist})
    payload = {"modulus": mod, "checks": checks,
               "worst_dist": max(c["worst_dist"] for c in checks)}
    run.emit(payload, all(c["ok"] for c in checks))


@main.command()
@_system_options
@click.option("--eps", default=None, help="resolution, default 1/(2*k_hi)")
@click.option("--k-hi", default=12, show_default=True,
              type=click.IntRange(min=1))
@click.option("--edges-csv", default=None, help="also write the edge list here")
@click.option("--expect-min-classes", default=None, type=int)
def classes(**flags):
    """Chain-recurrent classes of the construction sample."""
    run = _Run(**flags)
    k_hi = run.param("k_hi")
    eps = (Fraction(1, 2 * k_hi) if run.param("eps") is None
           else run.fraction("eps"))
    with _invalid_input():
        sample = construction_sample(run.system, extras_k_hi=k_hi,
                                     orbits_k_hi=k_hi, random_count=0)
        graph = build_chain_graph(sample, eps)
    part = chain_classes(graph)
    satellite_classes = sum(
        1 for cls in part.classes if all(isinstance(p, ExtraPoint) for p in cls))
    payload = {
        "epsilon": eps,
        "nodes": len(graph.nodes),
        "edges": graph.edge_count(),
        "class_count": part.class_count(),
        "satellite_orbit_classes": satellite_classes,
        "class_sizes": [len(cls) for cls in part.classes],
        "transient": len(part.transient),
    }
    csv_path = run.param("edges_csv")
    if csv_path:
        Path(csv_path).write_text(chain_edges_csv(graph))
    expect = run.param("expect_min_classes")
    ok = expect is None or part.class_count() >= expect
    if not ok:
        click.echo(f"classes: {part.class_count()} classes < expected {expect}")
    run.emit(payload, ok)


@main.command("stable-count")
@_system_options
@click.option("--center", required=True)
@click.option("--eps", required=True)
def stable_count(**flags):
    """Count stable classes inside one local stable set."""
    run = _Run(**flags)
    with _invalid_input():
        report = stable_class_count(run.system, _parse_point(run.param("center")),
                                    run.fraction("eps"))
    run.emit(report, ok=True)


@main.command("stable-radius")
@_system_options
@click.option("--center", required=True)
@click.option("--eps", default="1/4", show_default=True)
@click.option("--window", default=8, show_default=True,
              type=click.IntRange(min=0))
def stable_radius(**flags):
    """Uniform local-stable radius along the orbit, verified over a window."""
    run = _Run(**flags)
    with _invalid_input():
        radius, failures = orbit_stable_inclusion_failures(
            run.system, _parse_point(run.param("center")), run.fraction("eps"),
            window=run.param("window"))
    payload = {"radius": radius, "window": run.param("window"),
               "failures": failures}
    run.emit(payload, ok=not failures)


@main.command("limit-shadow")
@_system_options
@click.option("--stages", default=10, show_default=True,
              type=click.IntRange(MIN_STAGES, MAX_STAGES))
@click.option("--word-a", default="001", show_default=True)
@click.option("--word-b", default="01", show_default=True)
@click.option("--thresholds", default="1/2,1/4,1/8,1/16,1/32", show_default=True)
def limit_shadow_cmd(**flags):
    """Limit-trace the switching pseudo-orbit and report decay indices."""
    run = _Run(**flags)
    with _invalid_input():
        lpo = switching_limit_orbit(run.param("word_a"), run.param("word_b"),
                                    stages=run.param("stages"))
        report = limit_shadow(run.system, lpo,
                              thresholds=run.fractions("thresholds"))
    run.emit(report, ok=True)


@main.command("two-sided")
@_system_options
@click.option("--half", default=512, show_default=True,
              type=click.IntRange(1, MAX_HALF))
@click.option("--past-word", default="001", show_default=True)
@click.option("--future-word", default="0001", show_default=True)
@click.option("--thresholds", default="1/2,1/4,1/8,1/16", show_default=True)
def two_sided(**flags):
    """Two-sided limit trace of a drifting pseudo-orbit."""
    run = _Run(**flags)
    half = run.param("half")
    with _invalid_input():
        tslpo = drifting_two_sided_orbit(run.param("past_word"),
                                         run.param("future_word"), half=half)
        try:
            report = two_sided_limit_shadow(
                run.system, tslpo, thresholds=run.fractions("thresholds"))
        except ScheduleError as exc:
            raise ScheduleError(f"{exc}; try a --half above {half}") from None
    run.emit(report, ok=True)


@main.command("metric-axioms")
@_system_options
@click.option("--trials", default=100000, show_default=True,
              type=click.IntRange(min=1))
@click.option("--seed", default=7, show_default=True)
@click.option("--k-hi", default=None, type=click.IntRange(min=1),
              help="highest satellite level drawn, at most --k-max")
def metric_axioms(**flags):
    """Exact symmetry and triangle inequality over seeded random triples."""
    run = _Run(**flags)
    rng = random.Random(run.param("seed"))
    with _invalid_input():
        k_hi = run.system.level_bound(run.param("k_hi"))
    violations = []
    for index in range(run.param("trials")):
        a, b, c = random_triple(run.system, rng, k_hi)
        ab, bc, ac = aug_dist(a, b), aug_dist(b, c), aug_dist(a, c)
        if ab != aug_dist(b, a) or ac > ab + bc:
            violations.append({"trial": index, "points": [a, b, c]})
            if len(violations) >= 10:
                break
    payload = {"trials": run.param("trials"), "violations": violations}
    run.emit(payload, ok=not violations)


if __name__ == "__main__":
    main()
