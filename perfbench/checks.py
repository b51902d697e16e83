"""Invariant checks for every benchmark operation.

Each check returns None when the output is correct and a short message
naming the broken invariant otherwise.  The checks test the paper's
invariants, not pinned bytes: a change that moves the last bit of a log2
passes, a change that breaks a certificate does not.
"""

import json
from math import isfinite, log2

GAP_TOL = 1e-9
MC_ABS_TOL = 0.02          # acceptance criterion 8, bpcu
DECOMP_TOL = 0.01          # acceptance criterion 9
CLOSED_FORM_TOL = 1e-12

CSV_HEADER = ("M,P,c,rho,variant,inner_bpcu,outer_bpcu,gap_bpcu,"
              "inner_branch,outer_branch")
AUDIT_HEADER = "family,M,P,rho,c_low,c_high,increase"
META_KEYS = ("tool_version", "config_hash")

CLAIMED_GAP = {"Th3": 1.0, "Th4": 2.25, "Th5": 2.25, "Th6": 2.25}


def _meta_and_body(text, header):
    """Split CSV text into its '# key: value' lines and its data lines."""
    if not text.endswith("\n"):
        return None, "output does not end with a newline"
    lines = text[:-1].split("\n")
    keys = [ln[2:].split(":", 1)[0] for ln in lines[:len(META_KEYS)]]
    if tuple(keys) != META_KEYS or not all(ln.startswith("# ")
                                           for ln in lines[:len(META_KEYS)]):
        return None, f"metadata lines {lines[:len(META_KEYS)]!r}"
    if len(lines) <= len(META_KEYS) or lines[len(META_KEYS)] != header:
        return None, "schema line is not exact"
    return lines[len(META_KEYS) + 1:], None


def check_sweep_csv(text, expected_rows):
    """Exact schema line, the expected row count, ten fields in every row."""
    rows, problem = _meta_and_body(text, CSV_HEADER)
    if problem:
        return f"sweep csv: {problem}"
    if len(rows) != expected_rows:
        return f"sweep csv: {len(rows)} rows, expected {expected_rows}"
    for row in (rows[0], rows[-1]):
        if row.count(",") != 9:
            return f"sweep csv: malformed row {row!r}"
    return None


def check_certify_json(text, theorem, expected_rows, exit_code):
    """Certified, the exact Th3 gap, every other gap within 2.25."""
    if exit_code != 0:
        return f"certify {theorem}: exit code {exit_code}"
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"certify {theorem}: invalid JSON ({exc})"
    claim = CLAIMED_GAP[theorem]
    gap = doc.get("maxGap")
    if doc.get("certified") is not True:
        return f"certify {theorem}: certified={doc.get('certified')!r}"
    if not isinstance(gap, float) or not isfinite(gap):
        return f"certify {theorem}: maxGap={gap!r}"
    if theorem == "Th3" and abs(gap - claim) > GAP_TOL:
        return f"certify Th3: maxGap={gap!r}, expected exactly 1.0"
    if gap > claim + GAP_TOL:
        return f"certify {theorem}: maxGap={gap!r} above {claim}"
    if doc.get("results", {}).get("rows") != expected_rows:
        return f"certify {theorem}: rows={doc.get('results', {}).get('rows')!r}"
    return None


def check_audit_csv(text, exit_code):
    """The monotonicity audit of the certification forms finds nothing."""
    if exit_code != 0:
        return f"audit: exit code {exit_code}"
    rows, problem = _meta_and_body(text, AUDIT_HEADER)
    if problem:
        return f"audit csv: {problem}"
    if rows:
        return f"audit: {len(rows)} violations"
    return None


def check_point(inner, outer, claim):
    """A valid point query: finite bounds, inner <= outer, gap within claim."""
    if not (isfinite(inner) and isfinite(outer)):
        return f"point: non-finite bounds inner={inner!r} outer={outer!r}"
    if inner > outer + GAP_TOL:
        return f"point: inner {inner!r} above outer {outer!r}"
    if outer - inner > claim + GAP_TOL:
        return f"point: gap {outer - inner!r} above claim {claim}"
    return None


def check_point_error(raised, expected):
    """An out-of-range point raised exactly its documented error class.

    ``expected`` is None for a valid point, which must raise nothing.
    """
    if expected is None:
        return f"point: unexpected {type(raised).__name__}: {raised}"
    if raised is None:
        return f"point: expected {expected.__name__}, nothing raised"
    if type(raised) is not expected:
        return (f"point: expected {expected.__name__}, "
                f"got {type(raised).__name__}: {raised}")
    return None


# Closed forms of the canonical Monte Carlo points (acceptance criterion 8).
MC_CLOSED_FORMS = {
    "san-c2=4": 0.5 * log2(3.0),
    "san-c=0": 0.5 * log2(11.0),
    "gp-ab=1": 0.5 * log2(11.0),
    "gp-ab=0.3": 1.0,
    "scheme-ab=0.3": 0.9534452978042593,
    "scheme-M3-rho0.64": 0.5 * log2(1 + 10.0 / 2.44),
}


def check_simulate_json(text, label, target, exit_code):
    """Estimate within 0.02 bpcu of its closed form, or covariance within 0.01.

    Returns (problem, z_score); z_score is reported for the scheme target.
    """
    if exit_code != 0:
        return f"simulate {label}: exit code {exit_code}", None
    try:
        res = json.loads(text)["results"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return f"simulate {label}: unreadable output ({exc!r})", None
    if target == "decomposition":
        err = res.get("max_abs_covariance_error")
        if not isinstance(err, float) or not isfinite(err) or err >= DECOMP_TOL:
            return f"simulate {label}: covariance error {err!r}", None
        return None, None
    value = res.get("combined_rate" if target == "scheme" else "value")
    closed = res.get("closed_form")
    if not all(isinstance(v, float) and isfinite(v) for v in (value, closed)):
        return f"simulate {label}: value={value!r} closed_form={closed!r}", None
    if abs(closed - MC_CLOSED_FORMS[label]) > CLOSED_FORM_TOL:
        return f"simulate {label}: closed form {closed!r}", None
    if abs(value - closed) >= MC_ABS_TOL:
        return f"simulate {label}: |{value!r} - {closed!r}| >= {MC_ABS_TOL}", None
    return None, res.get("z_score") if target == "scheme" else None
