"""Command-line front end.

Subcommands: bounds, sweep, certify, fig3, simulate, audit.  Every flag has a
config-file equivalent (flat ``key = value`` lines, ``#`` comments); flags
take precedence over the file, the file over defaults.  ``--dump-config``
writes the fully resolved configuration, and re-running from that file
reproduces the output byte for byte.

Numerical output goes to ``--out`` (default stdout); a one-line human summary
goes to stderr.  Exit status: 0 on success, 1 when a certify run misses its
claimed gap, 2 on invalid input, 3 on an internal error.
"""

import contextlib
import hashlib
import json
import sys
from collections import namedtuple
from dataclasses import asdict
from math import isfinite, log10, sqrt

import numpy as np

from . import __version__, bounds, gaps, mc
from .errors import CcdpError, InvalidGain
from .model import ChannelParams, decompose_states

# type converts flag and file text; a required option has no default
Opt = namedtuple("Opt", "type default help required", defaults=(False,))


def int_list(text):
    return tuple(int(t) for t in text.split(",") if t.strip())


def float_list(text):
    return tuple(float(t) for t in text.split(",") if t.strip())


def count(text):
    """A whole number of at least 1: a thread or point count."""
    if int(text) < 1:
        raise ValueError(f"must be >= 1, got {text}")
    return int(text)


def rho_values(text):
    """None (the feasible axis) for 'feasible', else the comma list of floats."""
    return None if text == "feasible" else float_list(text)


def audit_families(text):
    """The families a --families text names, once each: 'optimized', 'all' or a list."""
    names = {"optimized": gaps.OPTIMIZED_FAMILIES, "all": tuple(gaps.AUDIT_FAMILIES)}.get(
        text, tuple(dict.fromkeys(t.strip() for t in text.split(",") if t.strip())))
    unknown = set(names) - set(gaps.AUDIT_FAMILIES)
    if unknown:
        raise ValueError(f"unknown audit families {sorted(unknown)}; "
                         f"valid: {sorted(gaps.AUDIT_FAMILIES)}")
    return names


def _choice(*choices, required=False):
    """One of the choices, the first by default unless required; nothing else."""
    def convert(text):
        if text not in choices:
            raise ValueError(f"must be one of {choices}, got {text!r}")
        return text
    return Opt(convert, None if required else choices[0], ", ".join(choices), required)


COMMANDS = ("bounds", "sweep", "certify", "fig3", "simulate", "audit")
_USAGE = (f"usage: ccdp {{{','.join(COMMANDS)}}} [--name value | --name=value ...]\n"
          f"       ccdp --config FILE   (command taken from the file)\n"
          f"       ccdp COMMAND --help  (the command's options)")

_GRID_OPTS = {
    "M-values": Opt(int_list, (2, 3, 4, 5, 6, 7, 8), "comma list of receiver counts"),
    "P-min": Opt(float, 3.01, "power grid lower end"),
    "P-max": Opt(float, 1e4, "power grid upper end"),
    "P-points": Opt(count, 50, "log-spaced power grid points"),
    "c2-min": Opt(float, 3.01, "squared-gain grid lower end"),
    "c2-max": Opt(float, 1e6, "squared-gain grid upper end"),
    "c2-points": Opt(count, 50, "log-spaced squared-gain grid points"),
    "rho-values": Opt(rho_values, None, "'feasible' (default) or comma list of correlations"),
    "rho-points": Opt(count, 13, "feasible correlations per M when rho-values=feasible"),
}

_POINT_OPTS = {
    "M": Opt(int, 2, "number of receivers"),
    "P": Opt(float, 10.0, "transmit power (linear)"),
    "c2": Opt(float, None, "squared state gain (primary knob)"),
    "c": Opt(float, None, "state gain; accepted and squared"),
    "rho": Opt(float, 0.0, "pairwise state correlation"),
}

_COMMON_OPTS = {"out": Opt(str, "-", "output path, '-' for stdout")}
# Any spelling of an outer variant, read as the family it names.
_VARIANT = Opt(gaps._FAMILY.__getitem__, bounds.APPENDIX_FORM, ", ".join(gaps._FAMILY))

OPTION_TABLES = {
    "bounds": {**_POINT_OPTS, **_COMMON_OPTS,
               "format": _choice("text", "csv", "json")},
    "sweep": {**_GRID_OPTS, **_COMMON_OPTS,
              "outer-variant": _VARIANT,
              "format": _choice("csv", "json")},
    "certify": {**_GRID_OPTS, **_COMMON_OPTS,
                "theorem": _choice(*gaps.THEOREMS, required=True),
                "variant": _VARIANT,
                "rows-out": Opt(str, None, "optional CSV path for the grid rows"),
                "format": _choice("json", "csv")},
    "fig3": {"P": Opt(float, 10.0, "transmit power"),
             "c-min": Opt(float, 0.1, "gain range lower end"),
             "c-max": Opt(float, 10.0, "gain range upper end"),
             "points": Opt(count, 200, "number of gain points"),
             **_COMMON_OPTS,
             "format": _choice("csv", "json")},
    "simulate": {**_POINT_OPTS, **_COMMON_OPTS,
                 "target": _choice("san", "gp", "scheme", "decomposition"),
                 "alpha-bar": Opt(float, None,
                                  "pre-coded power fraction (default: optimal)"),
                 "samples": Opt(int, 1_000_000, "Monte Carlo sample count"),
                 "seed": Opt(int, 0, "stream seed"),
                 "lam": Opt(float, None, "inflation factor override (gp only)"),
                 "threads": Opt(count, 1, "Monte Carlo worker threads"),
                 "format": _choice("json")},
    "audit": {**_GRID_OPTS, **_COMMON_OPTS,
              "families": Opt(audit_families, gaps.OPTIMIZED_FAMILIES,
                              "'optimized', 'all' or comma list of families"),
              "format": _choice("csv", "json")},
}

# Read by main itself, never resolved, dumped or hashed.
_FILE_OPTS = {"config": Opt(str, None, "config file path"),
              "dump-config": Opt(str, None, "write the resolved config to this path")}

# The simulate options that only some targets read.
_TARGET_OPTS = {"lam": ("gp",), "alpha-bar": ("san", "gp", "scheme")}


def _format_value(value):
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else str(value)


def read_config_file(path):
    """Parse a flat 'key = value' config file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CcdpError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_config(command, flag_values, file_values):
    """Merge defaults, config file and flags (flags win); one converter per
    option turns the text of a flag or of a file line into the value the
    command reads, and a text it rejects is a CcdpError naming the option."""
    table = OPTION_TABLES[command]
    unknown = [f"--{name}" for name in flag_values if name not in table]
    unknown += sorted(set(file_values) - set(table) - {"command"})
    if unknown:
        raise CcdpError(
            f"unknown options {unknown}; valid keys for {command}: {sorted(table)}")
    resolved = {}
    for name, opt in table.items():
        text = flag_values.get(name, file_values.get(name))
        if text is None and opt.required:
            raise CcdpError(f"--{name} is required (one of {opt.help})")
        try:
            resolved[name] = opt.default if text is None else opt.type(text)
        except ValueError as exc:
            raise CcdpError(f"{name}: {exc}") from None
    for name, targets in _TARGET_OPTS.items():
        if resolved.get(name) is not None and resolved["target"] not in targets:
            raise CcdpError(f"--{name} applies to --target {', '.join(targets)} "
                            f"only, not {resolved['target']}")
    return resolved


def dump_config_text(command, resolved):
    lines = [f"command = {command}"]
    lines += [f"{name} = {_format_value(value)}"
              for name, value in sorted(resolved.items()) if value is not None]
    return "\n".join(lines) + "\n"


def config_hash(command, resolved):
    # Sink paths and the thread count do not affect the numbers; keep the hash
    # invariant to them so identical computations are recognizable.
    material = {k: v for k, v in resolved.items()
                if k not in ("out", "rows-out", "threads")}
    return hashlib.sha256(
        dump_config_text(command, material).encode()).hexdigest()[:16]


def _flags(args):
    """{name: text} of each ``--name=value`` or ``--name value`` in args, as
    read_config_file reads a file; the value is always the next token, so
    ``--rho -1e-3`` is a value.  ``-h`` or ``--help`` reads as ``help``."""
    flags, tokens = {}, iter(args)
    for arg in tokens:
        if arg in ("-h", "--help"):
            arg = "--help="
        name, joined, text = arg.partition("=")
        if not name.startswith("--"):
            raise CcdpError(f"unexpected argument {arg!r}: an option is --name value")
        name = name[2:]
        if name in flags:
            raise CcdpError(f"--{name} is given more than once")
        if not joined:
            text = next(tokens, None)
            if text is None:
                raise CcdpError(f"--{name} needs a value")
        flags[name] = text
    return flags


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------

def _write(text, out):
    # ``out`` is a path, "-" for stdout or a file open for writing.
    if out in (None, "-"):
        sys.stdout.write(text)
    elif isinstance(out, str):
        # 1 MiB at a time: a long text, such as a 17 MB audit JSON, is never
        # encoded as one more full-size copy.
        with open(out, "w", encoding="utf-8") as fh:
            for start in range(0, len(text), 1 << 20):
                fh.write(text[start:start + (1 << 20)])
    else:
        out.write(text)


def _write_csv(report, meta, out):
    # A report's CSV, written as gaps._csv_pieces yields it: never held whole.
    with (open(out, "w", encoding="utf-8") if out not in (None, "-")
          else contextlib.nullcontext(sys.stdout)) as fh:
        for piece in gaps._csv_pieces(report, meta):
            _write(piece, fh)


def _meta(command, resolved):
    return {"tool_version": __version__, "config_hash": config_hash(command, resolved)}


def _envelope(command, resolved, results, max_gap=None, certified=None, warnings=()):
    cfg = {"command": command}
    cfg.update({k: (list(v) if isinstance(v, tuple) else v)
                for k, v in sorted(resolved.items())})
    cfg.update(_meta(command, resolved))
    return json.dumps(
        {"config": cfg, "results": results, "maxGap": max_gap,
         "certified": certified, "warnings": list(warnings)},
        indent=2, allow_nan=True) + "\n"


def _params_from(opts, gain=None):
    """(ChannelParams, squared gain) of --c2 or --c, else of gain if set; --c, or
    a negative --c2, is checked as the gain itself, as the grid axes check it,
    and a --c2 beside it must agree with it and be finite."""
    c2, c = opts.get("c2"), opts.get("c")
    if c2 is None and c is None:
        if gain is None:
            raise CcdpError("one of --c2 or --c is required")
        c = gain
    if c2 is not None and c is not None and abs(c * c - c2) > 1e-9 * max(1.0, abs(c2)):
        raise CcdpError(f"--c2 ({c2}) and --c ({c}) disagree")
    if c is None:
        c = sqrt(c2) if c2 >= 0 else c2
    params = ChannelParams(opts["M"], opts["P"], c, opts["rho"])
    c2 = c * c if c2 is None else c2
    if not isfinite(c2):  # NaN and +-inf pass the agreement test above
        raise InvalidGain(f"c2 must be finite, got {c2!r}")
    return params, c2


def _log_axis(opts, name, axis):
    """Log-spaced --<name>-points values between the ends, checked as the
    grid checks its own axis values."""
    lo, hi = (gaps.AXIS_CHECKS[axis](opts[f"{name}-{end}"]) for end in ("min", "max"))
    if not (lo > 0.0 and hi > 0.0):
        raise CcdpError(f"--{name}-min and --{name}-max must be > 0 on a log axis")
    values = np.logspace(log10(lo), log10(hi), opts[f"{name}-points"])
    # The ends as given, not 10**log10(end); a single point is lo.
    values[-1], values[0] = hi, lo
    return tuple(values)


def _grid_from(opts):
    return gaps.SweepGrid(
        m_values=opts["M-values"],
        p_values=_log_axis(opts, "P", "p_values"),
        c2_values=_log_axis(opts, "c2", "c2_values"),
        rho_values=opts["rho-values"],
        rho_points=opts["rho-points"],
        outer_variant=opts.get("outer-variant", bounds.APPENDIX_FORM),
    )


def _estimate_dict(est):
    return {**asdict(est), "z_score": est.z_score}


# ---------------------------------------------------------------------------
# Command implementations.
# ---------------------------------------------------------------------------

def cmd_bounds(resolved):
    params, c2 = _params_from(resolved)
    # The sweep rows of this point, with the appendix and the stated outer.
    appendix, stated = (
        gaps.run_sweep(gaps.SweepGrid((params.M,), (params.P,), (c2,), (params.rho,),
                                      outer_variant=variant))
        for variant in (bounds.APPENDIX_FORM, bounds.THEOREM))
    row, theorem = appendix.row(0), stated.row(0)

    if resolved["format"] == "json":
        results = {
            "inner": {"value": row.inner, "branch": row.inner_branch},
            "outer_appendix": {"value": row.outer, "branch": row.outer_branch,
                               "variant": row.variant},
            "outer_theorem": {"value": theorem.outer, "branch": theorem.outer_branch,
                              "variant": theorem.variant},
            "gap": row.gap,
        }
        _write(_envelope("bounds", resolved, results, max_gap=row.gap), resolved["out"])
    elif resolved["format"] == "csv":
        _write_csv(appendix, _meta("bounds", resolved), resolved["out"])
    else:
        _write(f"inner {row.inner:.6f}\n"
               f"outer(appendix) {row.outer:.6f}\n"
               f"outer(theorem) {theorem.outer:.6f}\n"
               f"gap {row.gap:.6f}\n", resolved["out"])
    print(f"bounds: M={params.M} P={params.P} c2={params.c2} rho={params.rho} "
          f"gap={row.gap:.6f}", file=sys.stderr)
    return 0


def cmd_sweep(resolved):
    grid = _grid_from(resolved)
    report = gaps.run_sweep(grid)  # first, so InfeasibleRho leads stderr
    summary = gaps.report_summary(report)
    print(f"sweep: {grid.size()} grid points", file=sys.stderr)
    if resolved["format"] == "json":
        _write(_envelope("sweep", resolved, summary, max_gap=summary["maxGap"],
                         warnings=report.warnings),
               resolved["out"])
    else:
        _write_csv(report, _meta("sweep", resolved), resolved["out"])
    print(f"sweep: maxGap={report.max_gap:.6f} at {summary['argmax']}", file=sys.stderr)
    return 0


def cmd_certify(resolved):
    theorem, variant = resolved["theorem"], resolved["variant"]
    # An axis set away from its default is certified as given, so one
    # outside the theorem's model is a WrongModel, not silently replaced.
    keep = [axis for name, axis in (("M-values", "m_values"),
                                    ("rho-values", "rho_values"))
            if resolved[name] != _GRID_OPTS[name].default]
    grid = gaps.theorem_grid(theorem, _grid_from(resolved), keep)
    report = gaps.certify_theorem(theorem, grid, variant_kind=variant)
    if resolved["rows-out"]:
        _write_csv(report, _meta("certify", resolved), resolved["rows-out"])
    if resolved["format"] == "csv":
        _write_csv(report, _meta("certify", resolved), resolved["out"])
    else:
        summary = gaps.report_summary(report)
        _write(_envelope("certify", resolved, summary, max_gap=summary["maxGap"],
                         certified=report.certified, warnings=report.warnings),
               resolved["out"])
    print(f"certify {theorem} ({variant}): maxGap={report.max_gap:.6f} "
          f"certified={'true' if report.certified else 'false'}", file=sys.stderr)
    return 0 if report.certified else 1


def cmd_fig3(resolved):
    c_values = np.linspace(resolved["c-min"], resolved["c-max"], resolved["points"])
    rows = gaps.fig3_curve(resolved["P"], c_values)
    if resolved["format"] == "json":
        results = [{"c": c, "raw_outer": r, "optimized_outer": o} for c, r, o in rows]
        _write(_envelope("fig3", resolved, results), resolved["out"])
    else:
        lines = [f"# {k}: {v}" for k, v in _meta("fig3", resolved).items()]
        lines.append("c,raw_outer,optimized_outer")
        lines += [f"{c!r},{r!r},{o!r}" for c, r, o in rows]
        _write("\n".join(lines) + "\n", resolved["out"])
    print(f"fig3: P={resolved['P']} points={resolved['points']}", file=sys.stderr)
    return 0


def cmd_simulate(resolved):
    target, threads = resolved["target"], resolved["threads"]
    params, _ = _params_from(resolved, 0.0 if target == "decomposition" else None)
    if target == "decomposition":
        decomp = decompose_states(params)
        err = mc.verify_decomposition_stats(decomp, resolved["samples"],
                                            resolved["seed"], threads)
        results = {"kind": decomp.kind,
                   "coefficients": {k: float(v) for k, v in decomp.coefficients.items()},
                   "max_abs_covariance_error": err}
    else:
        ab = resolved["alpha-bar"]
        if ab is None:
            ab = bounds.alpha_star(params).alpha_bar
        config = mc.SimulationConfig(params=params, samples=resolved["samples"],
                                     seed=resolved["seed"], alpha_bar=ab)
        if target == "san":
            results = _estimate_dict(mc.estimate_san_rate(config, threads=threads))
        elif target == "gp":
            results = _estimate_dict(
                mc.estimate_gp_rate(config, lam=resolved["lam"], threads=threads))
        else:
            report = mc.verify_scheme_rate(config, threads=threads)
            results = {
                "combined_rate": report.combined_rate,
                "combined_stderr": report.combined_stderr,
                "min_rate": report.min_rate,
                "closed_form": report.closed_form,
                "z_score": report.z_score,
                "per_receiver": [
                    {"san": _estimate_dict(san),
                     "gp": None if gp is None else _estimate_dict(gp)}
                    for san, gp in report.per_receiver],
            }
        results["alpha_bar"] = ab
    _write(_envelope("simulate", resolved, results), resolved["out"])
    print(f"simulate {target}: samples={resolved['samples']} "
          f"seed={resolved['seed']}", file=sys.stderr)
    return 0


def cmd_audit(resolved):
    grid = _grid_from(resolved)
    violations = gaps.monotonicity_audit(grid, resolved["families"])
    if resolved["format"] == "json":
        results = [asdict(v) for v in violations]
        _write(_envelope("audit", resolved, results), resolved["out"])
    else:
        lines = [f"# {k}: {v}" for k, v in _meta("audit", resolved).items()]
        lines.append("family,M,P,rho,c_low,c_high,increase")
        lines += [f"{v.family},{v.M},{v.P!r},{v.rho!r},{v.c_low!r},"
                  f"{v.c_high!r},{v.increase!r}" for v in violations]
        _write("\n".join(lines) + "\n", resolved["out"])
    print(f"audit: {len(violations)} violations over {len(resolved['families'])} families",
          file=sys.stderr)
    return 0


_HANDLERS = dict(zip(COMMANDS, (cmd_bounds, cmd_sweep, cmd_certify, cmd_fig3,
                                 cmd_simulate, cmd_audit)))


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] in (["-h"], ["--help"]):
        print(f"ccdp {__version__} - capacity bound engine\n{_USAGE}")
        return 0
    command = argv[0] if argv and argv[0] in COMMANDS else None

    try:
        flags = _flags(argv[1:] if command else argv)
        path = flags.pop("config", None)
        file_values = {} if path is None else read_config_file(path)
        if command is None:  # the command comes from the config file
            if path is None:
                raise CcdpError(_USAGE)
            command = file_values.get("command")
            if command not in COMMANDS:
                raise CcdpError(
                    f"config file {path} must set command to one of {COMMANDS}")
        if file_values.get("command", command) != command:
            raise CcdpError(
                f"config file command={file_values['command']} does not match "
                f"subcommand {command}")
        if "help" in flags:
            print(f"usage: ccdp {command} [--name value | --name=value ...]")
            for name, opt in {**OPTION_TABLES[command], **_FILE_OPTS}.items():
                default = "" if opt.default is None else f" (default: {_format_value(opt.default)})"
                print(f"  --{name:<14} {opt.help}{default}")
            return 0
        dump = flags.pop("dump-config", None)
        resolved = resolve_config(command, flags, file_values)
        if dump is not None:
            with open(dump, "w", encoding="utf-8") as fh:
                fh.write(dump_config_text(command, resolved))
        return _HANDLERS[command](resolved)
    except Exception as exc:  # CcdpError is a ValueError
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2 if isinstance(exc, (ValueError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
