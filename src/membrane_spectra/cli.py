"""Command-line front end: fixture generation, spectra, verification, batch."""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from functools import partial

import click
import numpy as np

from . import fem, fixtures, mesh as meshmod, verify as verifymod
from .transplant import disc_map_from_positions, identity_map_from_positions


def _fail(message: str, code: int = 1):
    click.echo(meshmod.dumps({"error": message}).decode(), err=True, nl=False)
    sys.exit(code)


@contextmanager
def _outputs(**paths):
    """Run a command's body with its output paths (None when not given)
    checked first: two that name standard output ('-') or one regular or
    new file exit 2; each file is opened for appending, which truncates
    nothing, so one that cannot be written exits 1 before any work; a
    ValueError, RuntimeError or OSError removes the files this command
    created and exits 1 with its JSON error."""
    seen = {}       # what an option writes to -> the option's name
    for name, path in paths.items():
        if path == "-":
            target = "standard output ('-')"
        elif path is None or os.path.exists(path) and not os.path.isfile(path):
            continue        # not given, or a device such as /dev/null
        else:
            target = f"the file {os.path.realpath(path)!r}"
        if target in seen:
            _fail(f"--{seen[target]} and --{name} both write to {target}",
                  code=2)
        seen[target] = name
    created = []
    try:
        for path in [p for p in paths.values() if p not in (None, "-")]:
            existed = os.path.lexists(path)
            open(path, "ab").close()
            created += [] if existed else [path]
        yield
    except (ValueError, RuntimeError, OSError) as exc:
        for path in created:
            os.remove(path)
        _fail(str(exc))


def _write(path, data: bytes, mode="wb"):
    """Write data to the file at path, or to standard output for '-'."""
    if path == "-":
        click.echo(data.decode(), nl=False)
    else:
        with open(path, mode) as fh:
            fh.write(data)


def _dump(path, doc):
    _write(path, meshmod.dumps(doc, indent=True))


def _finite(ctx, param, value):
    # click.FloatRange, like float, lets nan through
    if not np.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


@click.group()
def main():
    """Spectra and eigenvalue-inequality verification for bordered surfaces."""


@main.command()
@click.option("--shape", required=True, type=click.Choice(fixtures.SHAPES))
@click.option("--resolution", type=click.IntRange(min=1), required=True)
@click.option("--colatitude", default=np.pi / 2,
              type=click.FloatRange(0, np.pi, min_open=True, max_open=True),
              callback=_finite, help="cap polar angle in radians")
@click.option("--inner-radius", default=0.5,
              type=click.FloatRange(0, 1, min_open=True, max_open=True),
              callback=_finite)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              help="conformal-disc RNG seed")
@click.option("--amplitude", type=float, default=1.0, callback=_finite,
              help="bound on the conformal log-factor")
@click.option("--out", type=click.Path(), required=True,
              help="mesh JSON file, or '-' for stdout")
def gen(shape, resolution, colatitude, inner_radius, seed, amplitude, out):
    """Generate a fixture mesh (with its map, when the shape defines one)."""
    with _outputs(out=out):
        m, f = fixtures.build(shape, resolution, colatitude=colatitude,
                              inner_radius=inner_radius, seed=seed,
                              amplitude=amplitude)
        meshmod.save_mesh(out, m, f)


@main.command()
@click.argument("mesh_file", type=click.Path(exists=True))
@click.option("--bc", type=click.Choice(["dirichlet", "neumann"]),
              default="dirichlet")
@click.option("--k", type=click.IntRange(min=1), default=4)
@click.option("--eigenfunctions", is_flag=True)
@click.option("--out", type=click.Path(), default="-")
def spectrum(mesh_file, bc, k, eigenfunctions, out):
    """Compute the k smallest eigenpairs of a mesh file."""
    with _outputs(out=out):
        m, _ = meshmod.load_mesh(mesh_file)
        solve = fem.solve_dirichlet if bc == "dirichlet" else fem.solve_neumann
        result = solve(m, k)
        _dump(out, result.to_json_dict(include_eigenfunctions=eigenfunctions))


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
@click.option("--out", type=click.Path(), default="-")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="append a CSV row to this file, or '-' for stdout")
def verify_cmd(mesh_file, map_kind, out, csv_path):
    """Verify both eigenvalue inequalities on a mesh-plus-map instance."""
    with _outputs(out=out, csv=csv_path):
        m, stored = meshmod.load_mesh(mesh_file)
        f = _resolve_map(m, stored, map_kind)
        report = verifymod.verify_inequality(m, f)
        _dump(out, report.to_json_dict())
        if csv_path:
            name = os.path.basename(mesh_file)
            text = verifymod.reports_to_csv({f"{name}:0": report})
            if (csv_path != "-" and os.path.isfile(csv_path)
                    and os.path.getsize(csv_path)):
                text = text.split("\n", 1)[1]      # drop the header on append
            _write(csv_path, text.encode(), "ab")


# perfbench/workloads.py imports both names from this module
BATCH_FIXTURES = fixtures.BATTERY
_batch_instance = fixtures.instance


@main.command()
@click.option("--refine-levels", type=click.IntRange(min=1), default=2)
# the branched fixture needs at least 2 rings
@click.option("--base-resolution", type=click.IntRange(min=2), default=8)
@click.option("--csv", "csv_path", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), default=None,
              help="also write the full reports as JSON, '-' for stdout")
def batch(refine_levels, base_resolution, csv_path, out):
    """Run the built-in fixture battery across refinement levels
    (`verify.verify_levels`)."""
    with _outputs(csv=csv_path, out=out):
        reports = verifymod.verify_levels(
            {name: partial(fixtures.instance, name)
             for name in fixtures.BATTERY},
            [base_resolution * 2 ** level for level in range(refine_levels)])
        _write(csv_path, verifymod.reports_to_csv(reports).encode())
        if out:
            _dump(out, {key: report.to_json_dict()
                        for key, report in reports.items()})


if __name__ == "__main__":
    main()
