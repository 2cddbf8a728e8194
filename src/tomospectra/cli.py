"""Command-line surface: predictions, planning, simulation, analysis.

The library validates; the CLI reports: a library check's ``ValueError``,
raised before any work, becomes a usage error.  Every subcommand emits
either a human table (default) or machine JSON (``--format json``).  Machine
output carries full double precision; tables round to 6 significant
digits.  Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import contextlib
import json
import os
import sys
import time

import click
import numpy as np

from . import __version__, models
from .ensemble import (
    COMPLETE,
    OVERCOMPLETE,
    EnsembleIOError,
    EnsembleRunError,
    ExperimentConfig,
    load_ensemble,
    run_ensemble,
    save_ensemble,
)
from .gof import estimate_rank, sup_cdf_distance
from .pauli import STATE_KINDS, StateSpec
from .sampling import MULTINOMIAL, POISSON, CountModel

# the short names; every state kind a config.json can hold also stands for itself
_STATE_ALIASES = {
    **{kind: kind for kind in STATE_KINDS if kind != "explicit_matrix"},
    "wn": "white_noise",
    "white-noise": "white_noise",
    "pure": "pure_plus_noise",
    "rank": "rank_r_plus_noise",
    "ghz": "ghz_plus_noise",
    "dicke": "dicke_plus_noise",
}
_STATE_NAMES = "wn, pure, rank, ghz or dicke"

HISTOGRAM_FILE = "histogram.csv"
OVERLAY_FILE = "overlay.csv"
SUMMARY_FILE = "summary.json"


def _format_option(fn):
    return click.option(
        "--format", "fmt", type=click.Choice(["json", "table"]), default="table",
        show_default=True, help="machine JSON or a human-readable table")(fn)


def _fmt_value(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _emit(doc, fmt):
    """Print a flat-ish result dict as JSON or an aligned key/value table."""
    if fmt == "json":
        click.echo(json.dumps(doc, indent=2, sort_keys=True))
        return
    flat = []
    for key, value in doc.items():
        if isinstance(value, dict):
            for sub, subval in value.items():
                flat.append(("%s.%s" % (key, sub), _fmt_value(subval)))
        else:
            flat.append((key, _fmt_value(value)))
    width = max(len(k) for k, _ in flat)
    for key, value in flat:
        click.echo("%-*s  %s" % (width, key, value))


def _bad(message, hint):
    return click.BadParameter(message, param_hint=hint)


@contextlib.contextmanager
def _library_checks():
    """Report a library ``ValueError`` raised in the block as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.version_option(version=__version__, prog_name="tomospectra")
def cli():
    """Eigenvalue spectra of linearly reconstructed quantum states."""


# ---------------------------------------------------------------------------
# predict / min-counts: pure analytics
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--qubits", type=int, required=True, help="number of qubits n")
@click.option("--counts", type=int, required=True, help="events per setting N")
@click.option("--q", type=float, default=0.0, show_default=True,
              help="signal weight of the q*signal + (1-q)*I/2^n mix")
@click.option("--rank", "rank", type=int, default=None,
              help="signal rank r in 0..2^n; 0 and 2^n are white noise  "
                   "[default: 0 for q=0, else 1]")
@_format_option
def predict(qubits, counts, q, rank, fmt):
    """Predict the law that analyze overlays, and its physicality, at n, N, q, r."""
    if rank is None:
        rank = 0 if q == 0 else 1
    with _library_checks():
        doc = {
            "qubits": qubits,
            "counts": counts,
            "signal_weight": q,
            "rank": rank,
            **models.overcomplete_law(qubits, counts, q, rank).to_json(),
            "physicality_probability": models.physicality_probability(qubits, counts, q, rank),
        }
        if models._signal_rank(qubits, q, rank) == 1:  # min_counts is the rank-1 threshold
            doc["min_counts"] = models.min_counts(qubits, q)
    _emit(doc, fmt)


@cli.command("min-counts")
@click.option("--qubits", type=int, required=True, help="number of qubits n")
@click.option("--q", type=float, required=True,
              help="signal weight of the q*signal + (1-q)*I/2^n mix")
@_format_option
def min_counts_cmd(qubits, q, fmt):
    """Rank-1 threshold: smallest per-setting N with a nonnegative rank-1 bulk.

    It is the rank-1 formula at every q, though at q = 0 the state is
    white noise, whose bulk needs more (45 against 25 at n = 2); a
    threshold for any state awaits the free-convolution law (ROADMAP
    item 8).
    """
    with _library_checks():
        value = models.min_counts(qubits, q)
    if fmt == "table":
        click.echo(str(value))
    else:
        _emit({"qubits": qubits, "signal_weight": q, "min_counts": value}, fmt)


# ---------------------------------------------------------------------------
# simulate: Monte-Carlo ensembles on disk
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--qubits", type=int, required=True, help="number of qubits n")
@click.option("--state", default="wn", show_default=True,
              help="ground truth: " + _STATE_NAMES)
@click.option("--q", type=float, default=0.0, show_default=True,
              help="signal weight (0 for white noise)")
@click.option("--state-rank", type=int, default=1, show_default=True,
              help="signal rank for --state rank")
@click.option("--excitations", type=int, default=3, show_default=True,
              help="excitation number for --state dicke")
@click.option("--state-seed", type=int, default=0, show_default=True,
              help="seed of the random signal subspace (pure/rank states)")
@click.option("--scheme", type=click.Choice([OVERCOMPLETE, COMPLETE]),
              default=OVERCOMPLETE, show_default=True)
@click.option("--counts", type=int, default=None,
              help="events per setting (overcomplete scheme)")
@click.option("--count-mode", type=click.Choice([MULTINOMIAL, POISSON]),
              default=MULTINOMIAL, show_default=True,
              help="fixed totals per setting, or Poissonian totals")
@click.option("--total-counts", type=float, default=None,
              help="overall event budget (complete scheme)")
@click.option("--reps", type=int, required=True, help="number of replicas")
@click.option("--seed", type=int, default=0, show_default=True,
              help="master seed; every replica/setting derives from it")
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True,
              envvar="TOMOSPECTRA_THREADS", show_envvar=True,
              help="worker processes, at most one per stack of replicas")
@click.option("--out", type=click.Path(file_okay=False), required=True,
              help="directory for config.json/spectra.csv/checksum.txt")
@_format_option
def simulate(qubits, state, q, state_rank, excitations, state_seed, scheme,
             counts, count_mode, total_counts, reps, seed, threads, out, fmt):
    """Run repeated tomography simulations and store the spectra."""
    kind = _STATE_ALIASES.get(state.lower().strip())
    if kind is None:
        raise _bad("unknown state %r (use %s)" % (state, _STATE_NAMES), "--state")
    with _library_checks():
        config = ExperimentConfig(
            state=StateSpec(kind=kind, n=qubits, q=q, r=state_rank, k=excitations,
                            seed=state_seed),
            scheme=scheme,
            count_model=None if counts is None else CountModel(
                mode=count_mode, events_per_setting=counts),
            total_counts=total_counts, replicas=reps, master_seed=seed)

    started = time.time()
    with click.progressbar(length=reps, label="replicas", file=sys.stderr) as bar:
        result = run_ensemble(config, workers=threads,
                              progress=lambda done, total: bar.update(done - bar.pos))
    save_ensemble(result, out)
    doc = result.summary()
    doc["master_seed"] = seed
    doc["out"] = str(out)
    doc["elapsed_seconds"] = round(time.time() - started, 3)
    _emit(doc, fmt)


# ---------------------------------------------------------------------------
# analyze: histogram + model overlay for a stored ensemble
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--in", "in_dir", type=click.Path(exists=True, file_okay=False),
              required=True, help="ensemble directory (from simulate)")
@click.option("--bins", type=click.IntRange(min=1), default=60, show_default=True,
              help="histogram bin count over the pooled eigenvalues")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="where to write the csv/json files [default: --in]")
@_format_option
def analyze(in_dir, bins, out_dir, fmt):
    """Summarize a stored ensemble: moments, histogram, model overlay."""
    ensemble = load_ensemble(in_dir)
    out_dir = in_dir if out_dir is None else out_dir
    os.makedirs(out_dir, exist_ok=True)

    pooled = ensemble.pooled
    model = ensemble.config.law()
    model_doc = model.to_json()

    hist, edges = np.histogram(pooled, bins=bins)
    density = hist / (pooled.size * np.diff(edges))

    # grid covering both the data range and the model's own scale
    low, high = pooled.min(), pooled.max()
    lo = min(low, model_doc.get("center", low) - 1.2 * model_doc.get("radius", 0.0))
    hi = max(high, model_doc.get("center", high) + 1.2 * model_doc.get("radius", 0.0))
    grid = np.linspace(lo, hi, 513)

    doc = ensemble.summary()
    doc["bins"] = bins
    doc["model"] = model_doc
    doc["sup_cdf_distance"] = sup_cdf_distance(pooled, model.cdf)
    doc["files"] = {
        "histogram": os.path.join(out_dir, HISTOGRAM_FILE),
        "overlay": os.path.join(out_dir, OVERLAY_FILE),
        "summary": os.path.join(out_dir, SUMMARY_FILE),
    }
    np.savetxt(doc["files"]["histogram"], np.column_stack([edges[:-1], edges[1:], hist, density]),
               fmt="%.17g,%.17g,%d,%.17g", header="bin_left,bin_right,count,density", comments="")
    np.savetxt(doc["files"]["overlay"], np.column_stack([grid, model.pdf(grid), model.cdf(grid)]),
               fmt="%.17g,%.17g,%.17g", header="lambda,pdf,cdf", comments="")
    with open(doc["files"]["summary"], "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(doc, fmt)


# ---------------------------------------------------------------------------
# rank-test: signal rank estimation from one spectrum
# ---------------------------------------------------------------------------


def _read_eigenvalue_file(path):
    try:  # UnicodeDecodeError is a ValueError
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().replace(",", " ").split()
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise click.UsageError("cannot parse %s: %s" % (path, exc))


@cli.command("rank-test")
@click.option("--eigenvalues", "eig_file",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="text file with the 2^n measured eigenvalues")
@click.option("--in", "in_dir", type=click.Path(exists=True, file_okay=False),
              default=None, help="stored ensemble to pull a spectrum from")
@click.option("--replica", type=int, default=0, show_default=True,
              help="replica row used with --in")
@click.option("--counts", type=int, default=None,
              help="events per setting N [default: the ensemble's, with --in]")
@click.option("--significance", type=float, default=0.05, show_default=True,
              help="acceptance threshold on the effective P-value")
@click.option("--max-rank", type=int, default=None,
              help="largest candidate rank to test [default: min(2^n-5, 10)]")
@_format_option
def rank_test(eig_file, in_dir, replica, counts, significance, max_rank, fmt):
    """Find the smallest signal rank with a semicircle-consistent remainder."""
    if (eig_file is None) == (in_dir is None):
        raise click.UsageError(
            "exactly one input is required: --eigenvalues or --in")

    if eig_file is not None:
        eigs = _read_eigenvalue_file(eig_file)
        # 2**n values read as n qubits; estimate_rank refuses any other count
        n = max(eigs.size.bit_length() - 1, 1)
        if counts is None:
            raise _bad("required with --eigenvalues: the noise radius scales "
                       "with the per-setting events", "--counts")
        source = str(eig_file)
    else:
        ensemble = load_ensemble(in_dir)
        if not 0 <= replica < ensemble.replicas:
            raise _bad("must lie in 0..%d" % (ensemble.replicas - 1), "--replica")
        eigs = ensemble.spectra[replica]
        n = ensemble.n
        if counts is None:
            if ensemble.config.scheme != OVERCOMPLETE:
                raise _bad(
                    "required for complete-scheme ensembles: the rank test is "
                    "calibrated by per-setting events", "--counts")
            counts = ensemble.config.count_model.events_per_setting
        source = "%s:replica=%d" % (in_dir, replica)

    with _library_checks():
        report = estimate_rank(eigs, n, counts, significance=significance,
                               max_rank=max_rank)

    doc = report.to_json()
    doc["qubits"] = n
    doc["counts"] = counts
    doc["source"] = source
    if fmt == "json":
        _emit(doc, fmt)
        return
    header = ("rank", "center", "radius", "statistic", "p_value", "p_eff",
              "in_support", "signals")
    rows = [header]
    for c in report.candidates:
        rows.append((str(c.rank), "%.6g" % c.center, "%.6g" % c.radius,
                     "%.6g" % c.statistic, "%.6g" % c.p_value, "%.6g" % c.p_eff,
                     "yes" if c.in_support else "no", str(c.signal_count)))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        click.echo("  ".join("%*s" % (widths[i], cell)
                             for i, cell in enumerate(row)))
    if report.chosen_rank is None:
        click.echo("chosen rank: none accepted at significance %.6g"
                   % significance)
    else:
        click.echo("chosen rank: %d" % report.chosen_rank)


# ---------------------------------------------------------------------------
# entry point with the documented exit-code contract
# ---------------------------------------------------------------------------


def main(argv=None):
    """Run the CLI; returns 0 (ok), 1 (usage error) or 2 (runtime error)."""
    try:
        cli.main(args=argv, standalone_mode=False)  # --help and --version return 0
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 2
    except click.Abort:
        click.echo("aborted", err=True)
        return 130
    except (EnsembleIOError, EnsembleRunError, OSError, ValueError) as exc:
        click.echo("error: %s" % exc, err=True)
        return 2
    return 0


def entrypoint():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
