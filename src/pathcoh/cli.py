"""Command-line front end.

Exit codes: 0 all relations satisfied, 1 at least one violation,
2 input/config error or a relation that does not apply, 3 solver failed
certification on any row, 4 internal error (a failed internal invariant, a
numerical failure or any other exception raised while checking a relation).
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace

import click

from .discrimination import Ensemble, min_error_solve, pairwise_bound
from .duality import Evaluation, NotApplicable, Relation, TwoParticleScenario, holds
from .harness import (
    InternalError,
    ScenarioParseError,
    SweepConfig,
    _fmt,
    applicable_relations,
    DEFAULT_RELATIONS,
    default_out_dir,
    emit,
    parse_scenario,
    run_relation,
    run_sweep,
    summarize,
    witness_report,
)
from .interferometer import ScenarioSpec


def _exit_code(reports) -> int:
    if any(not r.solver_certified for r in reports):
        return 3
    if any(not r.satisfied for r in reports):
        return 1
    return 0


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _parse(path):
    try:
        return parse_scenario(path)
    except ScenarioParseError as exc:
        _fail(2, f"error: {exc}")


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma-separated integer list: {exc}")


@click.group()
def main():
    """Coherence / path-information duality laboratory."""


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--relation", "relations", multiple=True,
              type=click.Choice([r.value for r in Relation]),
              help="Relation to check (repeatable; default: all applicable).")
@click.option("--tol", type=float, default=None,
              help="Override the pass tolerance for every relation.")
def check(scenario_file, relations, tol):
    """Evaluate duality relations on a scenario file; they share one N x N evaluation."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        _fail(2, f"error: --tol must be finite and >= 0, got {tol}")
    obj = _parse(scenario_file)

    if isinstance(obj, TwoParticleScenario):
        wanted = [Relation(r) for r in relations] or [Relation.TWO_PARTICLE_SUM]
        if wanted != [Relation.TWO_PARTICLE_SUM]:
            _fail(2, "error: two-particle files support only TWO_PARTICLE_SUM")
    elif isinstance(obj, ScenarioSpec):
        wanted = ([Relation(r) for r in relations]
                  or applicable_relations(DEFAULT_RELATIONS, obj.n, obj.d_b))
        if Relation.TWO_PARTICLE_SUM in wanted:
            _fail(2, "error: TWO_PARTICLE_SUM needs a two-particle file")
        obj = Evaluation(obj)  # the relations share its N x N states and solve
    else:
        _fail(2, "error: ensemble files go with the `discriminate` command")

    reports = []
    for rel in wanted:
        try:
            rep = run_relation(rel, obj)
        except NotApplicable as exc:
            _fail(2, f"error: {rel.value}: {exc}")
        except Exception as exc:
            _fail(4, f"internal error: {rel.value}: {type(exc).__name__}: {exc}")
        if tol is not None:
            rep = replace(rep, satisfied=holds(rep.slack, rep.equality, tol))
        reports.append(rep)
        status = "PASS" if rep.satisfied else "FAIL"
        click.echo(f"{rep.relation_id.value}: {status}  lhs={_fmt(rep.lhs)} "
                   f"rhs={_fmt(rep.rhs)} slack={_fmt(rep.slack)}"
                   + ("" if rep.solver_certified else "  [UNCERTIFIED]"))
        for k, v in rep.components.items():
            click.echo(f"    {k} = {_fmt(v)}")
    sys.exit(_exit_code(reports))


@main.command()
@click.option("--seed", type=int, required=True)
@click.option("--count", type=int, required=True, help="Scenarios per cell.")
@click.option("--n", "n_list", required=True, help="Comma-separated path counts.")
@click.option("--db", "db_list", required=True, help="Comma-separated memory dims.")
@click.option("--dd", type=int, default=None, help="Detector dim (default: N).")
@click.option("--relation", "relations", multiple=True,
              type=click.Choice([r.value for r in Relation]))
@click.option("--jobs", type=int, default=1, help="Parallel worker processes.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
def sweep(seed, count, n_list, db_list, dd, relations, jobs, out_path, fmt):
    """Run a randomized verification sweep and write a report file."""
    if jobs < 1:
        _fail(2, f"error: --jobs must be >= 1, got {jobs}")
    try:
        config = SweepConfig(
            seed=seed, count=count,
            n_values=_parse_ints(n_list), d_b_values=_parse_ints(db_list),
            d_d=dd,
            relations=tuple(Relation(r) for r in relations) or None,
        )
    except (ValueError, click.BadParameter) as exc:
        _fail(2, f"error: {exc}")

    try:
        rows = run_sweep(config, jobs=jobs)
    except InternalError as exc:
        _fail(4, f"internal error: {exc}")
    if out_path is None:
        out_path = default_out_dir() / f"sweep-{seed}.{fmt}"
    emit(rows, fmt, out_path)
    s = summarize(rows)
    click.echo(f"{s['rows']} rows -> {out_path}  violations={s['violations']} "
               f"uncertified={s['uncertified']} worst_slack={_fmt(s['worst_slack'])}")
    if s["uncertified"]:
        sys.exit(3)
    sys.exit(1 if s["violations"] else 0)


@main.command()
@click.argument("ensemble_file", type=click.Path(exists=True, dir_okay=False))
def discriminate(ensemble_file):
    """Minimum-error discrimination of an ensemble file."""
    ens = _parse(ensemble_file)
    if not isinstance(ens, Ensemble):
        _fail(2, "error: expected an ensemble file (type = 'ensemble')")
    res = min_error_solve(ens)
    click.echo(f"p_success = {_fmt(res.p_success)}")
    click.echo(f"pairwise_bound = {_fmt(pairwise_bound(ens))}")
    click.echo(f"certificate_gap = {_fmt(res.certificate_gap)}")
    click.echo(f"iterations = {res.iterations}")
    sys.exit(0 if res.certified else 3)


@main.command()
@click.argument("scenario_file", type=click.Path(exists=True, dir_okay=False))
def witness(scenario_file):
    """Entanglement witnesses of the particle-memory state."""
    spec = _parse(scenario_file)
    if not isinstance(spec, ScenarioSpec):
        _fail(2, "error: expected a single-particle scenario file")
    rep = witness_report(spec)
    click.echo(f"purity_witness = {_fmt(rep['purity_witness'])}")
    click.echo(f"cond_ent_witness = {_fmt(rep['cond_ent_witness'])}")
    click.echo("negative values certify particle-memory entanglement")
    sys.exit(0)


if __name__ == "__main__":
    main()
