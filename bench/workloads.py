"""Seeded op generators for the three workloads, and the check of each op.

A workload is a stream of rounds. Every round has the same fixed mix of op
classes (kind and size); the seed only draws the matrix entries and
polynomial coefficients. Runs complete whole rounds, so two seeds run the
same mix and their timings can be compared. Each round starts with the
workload's lightest op class, which is also the op timed by ``setup_s``.

An op is a dict:
  kind    op class name, e.g. "nabla" or "aarhus-wick"
  size    size label within the kind, e.g. "g8" or "k5r11"
  argv    CLI arguments for ``cli.main``, or None for a library op
  lib     library op name when argv is None
  files   {file name: text} written to the work directory before the op
  source  index of the op whose stdout becomes ``files`` (chained ops)
  exit    expected exit code; 1 and 2 mark inputs the contract rejects
  data    what the check needs (matrix, coefficients, expected values)
  order   series truncation order, when the op has one

Ops are generated from (workload, stream, seed, round) alone, so the worker
and the checker rebuild identical ops without passing them between
processes. The warm-up uses the stream "warmup", the measured run "run".
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import oracle

#: Percentile grid for ``latency_tail_ms``; the highest one with at least ten
#: samples beyond it in a run of ``min_rounds`` rounds is used.
PERCENTILE_GRID = (50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5, 99.9)


def rng_for(workload: str, stream: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{stream}/{seed}/{rnd}")


def _op(kind, size, argv=None, lib=None, files=None, exit=0, data=None, order=None, source=None):
    return {
        "kind": kind,
        "size": size,
        "argv": argv,
        "lib": lib,
        "files": files or {},
        "source": source,
        "exit": exit,
        "data": data or {},
        "order": order,
    }


def _shuffle_units(rng, first, units):
    """Shuffle groups of ops, keeping each group's order, after ``first``."""
    rng.shuffle(units)
    ops = [first]
    for unit in units:
        base = len(ops)
        for op in unit:
            if op["source"] is not None:
                op["source"] += base
            ops.append(op)
    return ops


def _name(rnd: int, idx: int) -> str:
    return f"r{rnd}-{idx}"


# --- seifert-ladder ------------------------------------------------------

def seifert_matrix(rng, genus: int, components: int):
    """Random symmetric matrix plus a symplectic block, conjugated by a random
    unimodular matrix. V - V^T is congruent to genus hyperbolic blocks plus a
    zero block of size components - 1."""
    n = 2 * genus + components - 1
    v = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = rng.randint(-2, 2)
            v[i][j] += x
            if i != j:
                v[j][i] += x
    for b in range(genus):
        v[2 * b][2 * b + 1] += 1
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        v[i] = [a + c * b for a, b in zip(v[i], v[j])]
        for row in v:
            row[i] += c * row[j]
    return v


def _seifert_file(v, components: int) -> str:
    return json.dumps({"matrix": v, "components": components})


def _random_z_coeffs(rng, degree: int, constant=1):
    """b_0..b_degree of a polynomial in z^2 with nonzero top coefficient."""
    cs = [Fraction(constant)] + [Fraction(rng.randint(-9, 9)) for _ in range(degree)]
    if degree:
        cs[-1] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
    return cs


#: The per-round mix. Knot genus is weighted toward small genus; the lighter
#: half of the mix (normalize-delta, realizability, rejections) balances the
#: heavier half so that the median op is a genus-2 determinant.
LADDER_NABLA = (2, 2, 2, 2, 2, 3, 3, 3, 4, 4, 5, 6, 8)
#: (components, genus) of the link determinants.
LADDER_LINKS = ((2, 2), (3, 2))
#: (command, components, genus, order) of the series ops.
LADDER_SERIES = (("mmr", 1, 3, 32), ("mmr", 2, 2, 16), ("wheels", 1, 2, 24), ("wheels", 1, 4, 32))
#: realizability ops draw two genera from each band, covering genus 2-12.
LADDER_REALIZE = ((2, 4), (2, 4), (5, 8), (5, 8), (9, 12), (9, 12))
NORMALIZE_OPS = 6
WRONG_SIZE_OPS = 2


def seifert_round(workload: str, stream: str, seed: int, rnd: int):
    rng = rng_for(workload, stream, seed, rnd)
    units = []
    idx = itertools.count()

    def nabla(genus, components, exit=0, claimed=None):
        v = seifert_matrix(rng, genus, components)
        f = _name(rnd, next(idx)) + ".json"
        return _op(
            "nabla", f"g{genus}l{components}" if exit == 0 else "wrong-size",
            argv=["nabla", "--seifert", f], files={f: _seifert_file(v, claimed or components)},
            exit=exit, data={"v": v, "components": components},
        )

    first = nabla(2, 1)
    for g in LADDER_NABLA:
        units.append([nabla(g, 1)])
    for components, genus in LADDER_LINKS:
        units.append([nabla(genus, components)])
    for _ in range(WRONG_SIZE_OPS):
        # rejected: a knot-sized matrix claimed to bound two components
        units.append([nabla(rng.randint(2, 4), 1, exit=1, claimed=2)])
    for cmd, components, genus, order in LADDER_SERIES:
        v = seifert_matrix(rng, genus, components)
        f = _name(rnd, next(idx)) + ".json"
        flag = ["--seifert", f] if cmd == "mmr" else ["--from-seifert", f]
        units.append([_op(
            cmd + "-seifert", f"g{genus}l{components}o{order}",
            argv=[cmd, *flag, "--order", str(order)],
            files={f: _seifert_file(v, components)},
            data={"v": v, "components": components}, order=order,
        )])
    for _ in range(NORMALIZE_OPS):
        coeffs = _random_z_coeffs(rng, rng.randint(1, 4))
        h1 = rng.choice((1, 3, 5, 7))
        eps = rng.choice((-1, 1))
        shift = rng.randint(-3, 3)
        poly = oracle.z_poly_to_half_laurent(coeffs)
        delta = {k + shift: eps * h1 * c for k, c in poly.items()}
        units.append([_op(
            "normalize-delta", "d2-8",
            argv=["normalize-delta", f"--delta={oracle.t_text(delta)}", "--h1", str(h1)],
            data={"coeffs": coeffs, "poly": poly},
        )])
    for lo, hi in LADDER_REALIZE:
        genus = rng.randint(lo, hi)
        components = rng.randint(1, 3)
        units.append([_op(
            "realizability", f"g{lo}-{hi}", lib="realizability",
            data={"v": seifert_matrix(rng, genus, components), "genus": genus,
                  "components": components},
        )])
    return _shuffle_units(rng, first, units)


# --- wheel-roundtrip ------------------------------------------------------

#: How many forward/inverse/roundtrip/series groups each order gets per round.
WHEEL_ORDERS = ((16, 2), (32, 2), (64, 1), (128, 1))


def _h_text(coeffs) -> str:
    parts = []
    for m, c in enumerate(coeffs):
        if c:
            mono = "" if m == 0 else f"*h^{m}"
            parts.append(f"{'+' if c > 0 else '-'}{abs(c)}{mono}")
    return "".join(parts).lstrip("+")


def wheel_round(workload: str, stream: str, seed: int, rnd: int):
    rng = rng_for(workload, stream, seed, rnd)
    idx = itertools.count()

    def z_poly():
        degree = rng.randint(1, 6)
        return _random_z_coeffs(rng, degree), rng.randint(1, 7)

    def forward(order, size):
        coeffs, tor = z_poly()
        return _op(
            "lmo-json", size,
            argv=["lmo", f"--nabla={oracle.z_text(coeffs)}", "--tor", str(tor),
                  "--order", str(order), "--json"],
            data={"coeffs": coeffs, "tor": tor}, order=order,
        )

    first = forward(16, "o16")
    units = []
    for order, count in WHEEL_ORDERS:
        size = f"o{order}"
        for _ in range(count):
            fwd = forward(order, size)
            f = _name(rnd, next(idx)) + ".json"
            inv = _op(
                "lmo-invert", size,
                argv=["lmo", "--invert", f, "--max-z-degree", str(2 * (len(fwd["data"]["coeffs"]) - 1))],
                files={f: None}, data=fwd["data"], order=order, source=0,
            )
            units.append([fwd, inv])
            coeffs, tor = z_poly()
            units.append([_op(
                "roundtrip", size,
                argv=["roundtrip", f"--nabla={oracle.z_text(coeffs)}", "--tor", str(tor),
                      "--order", str(order)],
                data={"coeffs": coeffs, "tor": tor}, order=order,
            )])
            series = [Fraction(0)] * 9
            series[0] = Fraction(1)
            for m in range(2, 9, 2):
                if rng.random() < 0.8:
                    series[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if not any(series[1:]):
                series[2] = Fraction(1)
            units.append([_op(
                "wheels-series", size,
                argv=["wheels", f"--from-series={_h_text(series)}", "--order", str(order)],
                data={"series": series}, order=order,
            )])
    # rejected: value at z = 0 is not 1
    order = rng.choice([o for o, _ in WHEEL_ORDERS])
    coeffs = _random_z_coeffs(rng, rng.randint(1, 4), constant=rng.choice((-1, 0, 2, 3)))
    units.append([_op(
        "lmo-json", "bad-value",
        argv=["lmo", f"--nabla={oracle.z_text(coeffs)}", "--tor", str(rng.randint(1, 7)),
              "--order", str(order), "--json"],
        exit=1, order=order,
    )])
    return _shuffle_units(rng, first, units)


# --- surgery-struts --------------------------------------------------------

def framed_link(rng, k: int, r: int, singular=False, asymmetric=False):
    """Linking matrix with surgery block P D P^T (P unimodular, D diagonal),
    so its signature and |det| are known from D. Labels come in shuffled
    order; ``canonical`` lists the matrix in surgery + residual order."""
    d = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
    if singular:
        d[rng.randrange(k)] = 0
    a = [[d[i] if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-1, 1))
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a:
            row[i] += c * row[j]
    n = k + r
    m = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(k):
            m[i][j] = a[i][j]
    for i in range(k, n):
        for j in range(k):
            m[i][j] = m[j][i] = rng.choice((-3, -2, -1, 1, 2, 3))
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    surgery = [f"x{i}" for i in range(k)]
    rng.shuffle(surgery)
    labels = surgery + [f"a{i}" for i in range(r)]
    rng.shuffle(labels)
    residual = [x for x in labels if x not in surgery]
    # row i of m belongs to x<i> for i < k and to a<i-k> after
    row = {**{f"x{i}": i for i in range(k)}, **{f"a{i}": k + i for i in range(r)}}
    canon = surgery + residual
    canonical = [[m[row[x]][row[y]] for y in canon] for x in canon]
    file_matrix = [[m[row[x]][row[y]] for y in labels] for x in labels]
    if asymmetric:
        i, j = rng.sample(range(n), 2)
        file_matrix[i][j] += 1
    pos = sum(1 for x in d if x > 0)
    neg = sum(1 for x in d if x < 0)
    h1 = 1
    for x in d:
        h1 *= abs(x)
    return {
        "labels": labels, "surgery": surgery, "residual": residual, "k": k,
        "canonical": canonical, "file": file_matrix, "signature": (pos, neg), "h1": h1,
    }


def _link_file(link) -> str:
    return json.dumps({"labels": link["labels"], "surgery": link["surgery"], "matrix": link["file"]})


#: (command or library op, surgery size k, residual size r) per round.
SURGERY_MIX = (
    ("surgery", 2, 4), ("surgery", 3, 6), ("surgery", 4, 8), ("surgery", 5, 11), ("surgery", 3, 9),
    ("schur", 1, 3), ("schur", 2, 5), ("schur", 3, 7), ("schur", 4, 9), ("schur", 5, 11),
    ("wick", 5, 11), ("wick", 5, 11), ("wick", 3, 6), ("both", 4, 8),
    ("audit2", 2, 2), ("audit3", 2, 2),
)


def surgery_round(workload: str, stream: str, seed: int, rnd: int):
    rng = rng_for(workload, stream, seed, rnd)
    idx = itertools.count()

    def cli_op(kind, k, r, exit=0, **bad):
        link = framed_link(rng, k, r, **bad)
        f = _name(rnd, next(idx)) + ".json"
        if kind == "surgery":
            argv = ["surgery", "--linking", f]
        else:
            argv = ["aarhus-struts", "--linking", f, "--route", kind]
        label = kind if kind == "surgery" else f"aarhus-{kind}"
        size = f"k{k}r{r}" if exit == 0 else ("singular" if bad.get("singular") else "asymmetric")
        return _op(label, size, argv=argv, files={f: _link_file(link)}, exit=exit, data=link)

    first = cli_op("surgery", 1, 2)
    units = []
    for kind, k, r in SURGERY_MIX:
        if kind.startswith("audit"):
            degree = int(kind[-1])
            units.append([_op(
                "wick-audit", f"d{degree}k{k}r{r}", lib="wick-audit",
                data={**framed_link(rng, k, r), "degree": degree},
            )])
        else:
            units.append([cli_op(kind, k, r)])
    units.append([cli_op("surgery", 3, 4, exit=1, singular=True)])
    units.append([cli_op("schur", 2, 3, exit=2, asymmetric=True)])
    return _shuffle_units(rng, first, units)


WORKLOADS = {
    "seifert-ladder": seifert_round,
    "wheel-roundtrip": wheel_round,
    "surgery-struts": surgery_round,
}

#: Rounds a run completes at least; fixes the tail percentile (see
#: PERCENTILE_GRID) and keeps the op mix whole.
MIN_ROUNDS = {"seifert-ladder": 5, "wheel-roundtrip": 12, "surgery-struts": 12}


def make_round(workload: str, stream: str, seed: int, rnd: int):
    return WORKLOADS[workload](workload, stream, seed, rnd)


def tail_percentile(workload: str) -> float:
    n = MIN_ROUNDS[workload] * len(make_round(workload, "run", 0, 0))
    return max(p for p in PERCENTILE_GRID if n * (1 - p / 100) >= 10)


# --- library ops ----------------------------------------------------------

def run_library(op) -> str:
    """Run a library op and return its printed form."""
    import nabla_lmo as nl

    data = op["data"]
    if op["lib"] == "realizability":
        r = nl.realizability_report(nl.SeifertMatrix(data["v"]))
        return f"{r.realizable_in_s3} {r.genus} {r.boundary_components}"
    if op["lib"] == "wick-audit":
        m = nl.FramedLinkMatrix(data["labels"], data["surgery"], data["file"])
        d = data["degree"]
        paired = nl.wick_pair(
            nl.left_pairing_factor(m, d), nl.right_pairing_factor(m, d), m.surgery_labels
        )
        return str(paired)
    raise ValueError(f"unknown library op {op['lib']!r}")


# --- checks -----------------------------------------------------------------

CHECK_POINTS = (Fraction(2), Fraction(3), Fraction(-5, 2))
#: Wheel and series coefficients are recomputed up to this order; above it the
#: reference would cost as much as the op. ``lmo --invert`` covers the rest.
CHECK_ORDER = 32


def _lines(out: str):
    return out.rstrip("\n").split("\n")


def _check_nabla(op, out):
    z_line, t_line = _lines(out)
    v, comps = op["data"]["v"], op["data"]["components"]
    t_poly = oracle.parse_t_poly(t_line)
    z_poly = oracle.parse_z_poly(z_line)
    if any(e < comps - 1 or (e - comps + 1) % 2 for e in z_poly):
        return "z-form is not in z^(components-1)*Q[z^2]"
    for s in CHECK_POINTS:
        want = oracle.conway_at(v, s)
        if oracle.eval_half_laurent(t_poly, s) != want:
            return f"polynomial at t^(1/2)={s} differs from det(sV - V^T/s) = {want}"
        z = s - 1 / s
        if sum((c * z ** e for e, c in z_poly.items()), Fraction(0)) != want:
            return f"z-form at t^(1/2)={s} differs from {want}"
    return None


def _check_mmr(op, out):
    cs, order = oracle.parse_h_series(_lines(out)[0])
    want = oracle.mmr_coeffs(oracle.interpolate_conway(op["data"]["v"]), min(op["order"], CHECK_ORDER))
    if order is None:
        return None if not any(want) else "zero series, expected c(h)*nabla(e^(h/2))"
    if order != op["order"]:
        return f"series order {order} != {op['order']}"
    return None if cs[: len(want)] == want else "series differs from c(h)*nabla(e^(h/2))"


def _check_wheels_seifert(op, out):
    got = oracle.parse_wheels(_lines(out)[0])
    top = min(op["order"], CHECK_ORDER)
    f = oracle.mmr_coeffs(oracle.interpolate_conway(op["data"]["v"]), top)
    return _compare_wheels(got, oracle.wheels_of_series(f, top), op["order"], top)


def _compare_wheels(got, want, order, top):
    if any(k > order or k % 2 for k in got):
        return "wheel index beyond the order or odd"
    low = {k: c for k, c in got.items() if k <= top}
    return None if low == want else "wheel coefficients differ from -(1/2) log of the series"


def _check_normalize(op, out):
    z_line, t_line = _lines(out)
    coeffs = op["data"]["coeffs"]
    want_z = {2 * j: c for j, c in enumerate(coeffs) if c}
    if oracle.parse_z_poly(z_line) != want_z:
        return "z-form differs from the generating polynomial"
    if oracle.parse_t_poly(t_line) != op["data"]["poly"]:
        return "polynomial differs from the expansion of the z-form"
    return None


def _check_realizability(op, out):
    d = op["data"]
    want = f"True {d['genus']} {d['components']}"
    return None if out.strip() == want else f"expected {want!r}"


def _lmo_reference(coeffs, tor, top):
    poly = oracle.z_poly_to_half_laurent(coeffs)
    knot = oracle.wheels_of_series(oracle.mmr_coeffs(poly, top), top)
    knot = {k: a * Fraction(tor) ** k for k, a in knot.items()}
    nu = oracle.wheels_of_series(oracle.c_series(top), top)
    return knot, nu


def _check_lmo_json(op, out):
    data = json.loads(out)
    order, tor = op["order"], op["data"]["tor"]
    if data["order"] != order or data["h1_order"] != tor:
        return "order or h1_order differs from the request"
    top = min(order, CHECK_ORDER)
    knot, nu = _lmo_reference(op["data"]["coeffs"], tor, top)
    got_knot = {int(k): Fraction(v) for k, v in data["knot_wheels"].items()}
    got_nu = {int(k): Fraction(v) for k, v in data["nu_wheels"].items()}
    return _compare_wheels(got_knot, knot, order, top) or _compare_wheels(got_nu, nu, order, top)


def _check_invert(op, out):
    coeffs = op["data"]["coeffs"]
    want = {2 * j: c for j, c in enumerate(coeffs) if c}
    got = oracle.parse_z_poly(_lines(out)[0])
    return None if got == want else "inversion did not give back the input polynomial"


def _check_roundtrip(op, out):
    line = _lines(out)[0]
    head = "roundtrip ok: "
    tail = f" (tor_order={op['data']['tor']}, order={op['order']})"
    if not (line.startswith(head) and line.endswith(tail)):
        return "unexpected roundtrip line"
    want = {2 * j: c for j, c in enumerate(op["data"]["coeffs"]) if c}
    got = oracle.parse_z_poly(line[len(head): -len(tail)])
    return None if got == want else "roundtrip reported another polynomial"


def _check_wheels_series(op, out):
    got = oracle.parse_wheels(_lines(out)[0])
    top = min(op["order"], CHECK_ORDER)
    series = op["data"]["series"][: top + 1]
    return _compare_wheels(got, oracle.wheels_of_series(series, top), op["order"], top)


def _matrix_lines(d):
    schur = oracle.eliminate_leading(d["canonical"], d["k"])
    return ["labels:" + "".join(f" {x}" for x in d["residual"])] + [
        " ".join(str(x) for x in row) for row in schur
    ]


def _check_surgery(op, out):
    d = op["data"]
    pos, neg = d["signature"]
    want = _matrix_lines(d) + [f"signature: ({pos}, {neg})", f"h1_order: {d['h1']}"]
    return None if _lines(out) == want else "differs from block elimination"


def _check_aarhus(op, out):
    return None if _lines(out) == _matrix_lines(op["data"]) else "differs from block elimination"


def _check_wick_audit(op, out):
    import nabla_lmo as nl

    d = op["data"]
    schur = oracle.eliminate_leading(d["canonical"], d["k"])
    want = str(nl.StrutQuadratic(d["residual"], schur).expand(d["degree"]))
    return None if out.strip() == want else "pairing differs from the Schur exponential"


CHECKS = {
    "nabla": _check_nabla,
    "mmr-seifert": _check_mmr,
    "wheels-seifert": _check_wheels_seifert,
    "normalize-delta": _check_normalize,
    "realizability": _check_realizability,
    "lmo-json": _check_lmo_json,
    "lmo-invert": _check_invert,
    "roundtrip": _check_roundtrip,
    "wheels-series": _check_wheels_series,
    "surgery": _check_surgery,
    "aarhus-schur": _check_aarhus,
    "aarhus-wick": _check_aarhus,
    "aarhus-both": _check_aarhus,
    "wick-audit": _check_wick_audit,
}


def check(op, record) -> str | None:
    """None when the op ended as expected, else the reason it failed."""
    if record.get("exc"):
        return "raised: " + record["exc"].strip().splitlines()[-1]
    if record["exit"] != op["exit"]:
        return f"exit {record['exit']}, expected {op['exit']}"
    if op["exit"] != 0:
        err = record["err"]
        ok = record["out"] == "" and err.startswith("error: ") and err.count("\n") == 1
        return None if ok else "rejection is not a one-line error"
    try:
        return CHECKS[op["kind"]](op, record["out"])
    except (ValueError, KeyError, IndexError, ZeroDivisionError, StopIteration) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
