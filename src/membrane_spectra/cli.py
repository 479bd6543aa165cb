"""Command-line front end: fixture generation, spectra, verification, batch."""

from __future__ import annotations

import os
import sys

import click
import numpy as np

from . import fem, fixtures, mesh as meshmod, verify as verifymod
from .transplant import disc_map_from_positions, identity_map_from_positions


def _fail(message: str, code: int = 1):
    click.echo(meshmod.dumps({"error": message}).decode(), err=True, nl=False)
    sys.exit(code)


def _dump(path, doc):
    data = meshmod.dumps(doc, indent=True)
    if path is None or path == "-":
        click.echo(data.decode(), nl=False)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


@click.group()
def main():
    """Spectra and eigenvalue-inequality verification for bordered surfaces."""


@main.command()
@click.option("--shape", required=True, type=click.Choice(fixtures.SHAPES))
@click.option("--resolution", type=int, required=True)
@click.option("--colatitude", type=float, default=np.pi / 2,
              help="cap polar angle in radians")
@click.option("--inner-radius", type=float, default=0.5)
@click.option("--seed", type=int, default=0, help="conformal-disc RNG seed")
@click.option("--amplitude", type=float, default=1.0,
              help="bound on the conformal log-factor")
@click.option("--out", type=click.Path(), required=True,
              help="mesh JSON file, or '-' for stdout")
def gen(shape, resolution, colatitude, inner_radius, seed, amplitude, out):
    """Generate a fixture mesh (with its map, when the shape defines one)."""
    try:
        m, f = fixtures.build(shape, resolution, colatitude=colatitude,
                              inner_radius=inner_radius, seed=seed,
                              amplitude=amplitude)
        meshmod.save_mesh(out, m, f)
    except (ValueError, RuntimeError) as exc:
        _fail(str(exc))


@main.command()
@click.argument("mesh_file", type=click.Path(exists=True))
@click.option("--bc", type=click.Choice(["dirichlet", "neumann"]),
              default="dirichlet")
@click.option("--k", type=click.IntRange(min=1), default=4)
@click.option("--eigenfunctions", is_flag=True)
@click.option("--out", type=click.Path(), default="-")
def spectrum(mesh_file, bc, k, eigenfunctions, out):
    """Compute the k smallest eigenpairs of a mesh file."""
    try:
        m, _ = meshmod.load_mesh(mesh_file)
        solve = fem.solve_dirichlet if bc == "dirichlet" else fem.solve_neumann
        result = solve(m, k)
        _dump(out, result.to_json_dict(include_eigenfunctions=eigenfunctions))
    except (ValueError, RuntimeError) as exc:
        _fail(str(exc))


def _resolve_map(m, stored, map_kind):
    if map_kind == "file":
        if stored is None:
            raise ValueError("mesh file carries no map samples")
        return stored
    if map_kind == "id":
        return identity_map_from_positions(m)
    return disc_map_from_positions(m)      # "stereo", as click.Choice allows


@main.command(name="verify")
@click.argument("mesh_file", type=click.Path(exists=True))
@click.option("--map", "map_kind", default="file",
              type=click.Choice(["file", "id", "stereo"]),
              help="map source: samples stored in the file, the identity "
                   "on embedded vertices, or stereographic projection")
@click.option("--degree", default="auto",
              help="'auto' (Jacobian integral) or an explicit integer")
@click.option("--out", type=click.Path(), default="-")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="append a CSV row to this file")
def verify_cmd(mesh_file, map_kind, degree, out, csv_path):
    """Verify both eigenvalue inequalities on a mesh-plus-map instance."""
    deg = degree
    if degree != "auto":
        try:
            deg = meshmod.positive_degree(int(degree))
        except ValueError:
            _fail("--degree must be 'auto' or a positive integer, "
                  f"got {degree!r}", code=2)
    try:
        m, stored = meshmod.load_mesh(mesh_file)
        f = _resolve_map(m, stored, map_kind)
        report = verifymod.verify_inequality(m, f, degree=deg)
        _dump(out, report.to_json_dict())
        if csv_path:
            row = report.csv_row(fixture=os.path.basename(mesh_file))
            _append_csv(csv_path, [row])
    except (ValueError, RuntimeError) as exc:
        _fail(str(exc))


def _append_csv(path, rows):
    text = verifymod.reports_to_csv(rows)
    with open(path, "a") as fh:
        if fh.tell():        # append mode starts at the end of the file
            text = text.split("\n", 1)[1]  # drop the header on append
        fh.write(text)


# perfbench/workloads.py imports both names from this module
BATCH_FIXTURES = fixtures.BATTERY
_batch_instance = fixtures.instance


def _verdict(name, resolution):
    return verifymod.verify_inequality(*fixtures.instance(name, resolution))


@main.command()
@click.option("--refine-levels", type=int, default=2)
@click.option("--base-resolution", type=int, default=8)
@click.option("--csv", "csv_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), default=None,
              help="also write the full reports as JSON")
def batch(refine_levels, base_resolution, csv_path, out):
    """Run the built-in fixture suite across refinement levels.

    The verdicts run on one forked worker process per usable CPU
    (`fem.forked_map`), with the same output as one process.
    """
    if refine_levels < 1:
        _fail("refine-levels must be >= 1", code=2)
    jobs = [(name, level, base_resolution * 2 ** level)
            for name in fixtures.BATTERY for level in range(refine_levels)]
    # the finest level first, so that no long verdict starts last
    order = sorted(range(len(jobs)), key=lambda i: -jobs[i][1])
    try:
        done = fem.forked_map([(_verdict, (jobs[i][0], jobs[i][2]))
                               for i in order])
    except (ValueError, RuntimeError) as exc:
        _fail(str(exc))
    reports = [report for _, report in sorted(zip(order, done))]

    rows = []
    docs = {}
    # jobs are listed by fixture with levels in order, so level l > 0
    # pairs with the report just before it
    for i, ((name, level, _), report) in enumerate(zip(jobs, reports)):
        if level > 0:
            report.eps_fem = verifymod.richardson_budget(report, reports[i - 1])
        rows.append(report.csv_row(fixture=name, level=level))
        docs[f"{name}:{level}"] = report.to_json_dict()
    with open(csv_path, "w") as fh:
        fh.write(verifymod.reports_to_csv(rows))
    if out:
        _dump(out, docs)


if __name__ == "__main__":
    main()
