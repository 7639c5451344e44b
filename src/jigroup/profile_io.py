"""Line-based profile files: parse and emit with located diagnostics.

Format (version header required, '#' comments allowed):

    jigroup-profile v1
    kind va
    ring Z2
    rank 4
    precision 64
    degree 16
    gen 1 2 3 0 ...            # one per group generator, 0-based images
    mat 0 1 0 0 ... units      # one per gen, row-major entries

Entry tokens: integers, rationals "n/d", p-adic approximations "r:k"
(residue r known mod p^k), or number-ring coefficient vectors "c0,c1,..."
against a declared "modulus c0 c1 ... 1" line.  Kinds: va, wreath,
permgroup, matrep.
"""

from __future__ import annotations

from fractions import Fraction

from sympy import isprime

from .padic import DEFAULT_PRECISION, PadicApprox, pmat_identity, pmat_mul, pmat_sub
from .perm import LATTICE_GATE, PermGroup, check_perm, identity_perm
from .profiles import VaProfile
from .ratmat import NumberRing
from .rep import MatRep, RelationViolation, close_over_group, rep_from_data

FORMAT_HEADER = "jigroup-profile v1"


class ProfileError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _tokenize(text):
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((ln, line))
    return out


def parse_profile(text):
    """Parse to exactly one domain object or raise a located ProfileError."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _tokenize(text)
    if not lines:
        raise ProfileError(0, "empty profile")
    ln0, header = lines[0]
    if header != FORMAT_HEADER:
        if header.startswith("jigroup-profile"):
            raise ProfileError(ln0, f"unknown version: {header!r}")
        raise ProfileError(ln0, f"missing header {FORMAT_HEADER!r}")
    fields = {}
    gens = []
    mats = []
    for ln, line in lines[1:]:
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "gen":
            gens.append((ln, rest))
        elif key == "mat":
            mats.append((ln, rest))
        elif key in ("kind", "ring", "rank", "precision", "degree", "fiber",
                     "prime", "modulus"):
            if key in fields:
                raise ProfileError(ln, f"duplicate field {key!r}")
            fields[key] = (ln, rest)
        else:
            raise ProfileError(ln, f"unknown field {key!r}")
    if "kind" not in fields:
        raise ProfileError(lines[-1][0], "missing kind")
    kind = fields["kind"][1]
    if kind == "wreath":
        return _parse_wreath(fields)
    if kind == "permgroup":
        return _parse_group(fields, gens)
    if kind in ("va", "matrep"):
        return _parse_matrix_kind(kind, fields, gens, mats)
    raise ProfileError(fields["kind"][0], f"unknown kind {kind!r}")


def _require(fields, key, kind):
    if key not in fields:
        raise ProfileError(0, f"kind {kind} requires field {key!r}")
    return fields[key]


def _parse_int(ln, s, what):
    try:
        return int(s)
    except ValueError:
        raise ProfileError(ln, f"{what} must be an integer, got {s!r}")


def _parse_wreath(fields):
    from .wreath import build_wreath_shadow

    _, fiber = _require(fields, "fiber", "wreath")
    ln2, prime = _require(fields, "prime", "wreath")
    return build_wreath_shadow(fiber, _parse_int(ln2, prime, "prime"))


def _parse_group(fields, gens):
    ln, deg = _require(fields, "degree", "permgroup")
    degree = _parse_int(ln, deg, "degree")
    perms = [_parse_perm(ln, s, degree) for ln, s in gens]
    if not perms:
        raise ProfileError(ln, "permgroup requires at least one gen line")
    return PermGroup(perms, degree)


def _parse_perm(ln, s, degree):
    try:
        imgs = tuple(int(t) for t in s.split())
    except ValueError:
        raise ProfileError(ln, f"bad permutation images: {s!r}")
    if len(imgs) != degree:
        raise ProfileError(ln, f"permutation has {len(imgs)} images, degree {degree}")
    try:
        check_perm(imgs)
    except ValueError as exc:
        raise ProfileError(ln, str(exc))
    return imgs


def _parse_ring(fields):
    if "ring" not in fields:
        return None
    ln, s = fields["ring"]
    if s == "Z":
        return "Z"
    if s.startswith("Z") and s[1:].isdigit():
        p = int(s[1:])
        if not isprime(p):
            raise ProfileError(ln, f"bad prime in ring {s!r}")
        return ("Zp", p)
    raise ProfileError(ln, f"ring must be Z or Z<p>, got {s!r}")


def _parse_entry(ln, token, ring, precision, number_ring):
    if ":" in token:
        if not isinstance(ring, tuple):
            raise ProfileError(ln, "p-adic entry in a non-Zp profile")
        r, _, k = token.partition(":")
        return PadicApprox(ring[1], 0, _parse_int(ln, r, "residue"),
                           _parse_int(ln, k, "precision"))
    if "," in token and number_ring is None:
        raise ProfileError(ln, "coefficient-vector entry without a modulus")
    try:
        if "," in token:
            return number_ring.element([Fraction(t) for t in token.split(",")])
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ProfileError(ln, f"bad matrix entry {token!r}")


def _parse_matrix_kind(kind, fields, gens, mats):
    ln, deg = _require(fields, "degree", kind)
    degree = _parse_int(ln, deg, "degree")
    perms = [_parse_perm(gl, s, degree) for gl, s in gens]
    if not perms:
        raise ProfileError(ln, f"kind {kind} requires gen lines")
    group = PermGroup(perms, degree)
    ring = _parse_ring(fields) or "Z"
    precision = DEFAULT_PRECISION
    if "precision" in fields:
        pl, ps = fields["precision"]
        precision = _parse_int(pl, ps, "precision")
    number_ring = None
    if "modulus" in fields:
        ml, ms = fields["modulus"]
        try:
            number_ring = NumberRing([Fraction(t) for t in ms.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise ProfileError(ml, f"bad modulus: {exc}")
    if kind == "va":
        rl, rs = _require(fields, "rank", "va")
        rank = _parse_int(rl, rs, "rank")
    else:
        rank = None
    if len(mats) != len(perms):
        raise ProfileError(
            mats[-1][0] if mats else ln,
            f"need one mat line per gen ({len(perms)}), got {len(mats)}",
        )
    gen_mats = []
    for ml, s in mats:
        tokens = s.split()
        d = rank if rank is not None else _isqrt_exact(ml, len(tokens))
        if len(tokens) != d * d:
            raise ProfileError(ml, f"matrix needs {d}*{d} entries, got {len(tokens)}")
        entries = [
            _parse_entry(ml, t, ring, precision, number_ring) for t in tokens
        ]
        gen_mats.append(
            tuple(tuple(entries[i * d + j] for j in range(d)) for i in range(d))
        )
    try:
        rep = _rep_from_parsed(group, gen_mats, ring, precision, number_ring)
    except RelationViolation as exc:
        # located at the mat line of the last generator of the failing word
        raise ProfileError(mats[exc.word[-1]][0], str(exc))
    except ValueError as exc:
        raise ProfileError(mats[0][0], str(exc))
    if kind == "matrep":
        return rep
    return VaProfile(ring, rank, rep, precision)


def _isqrt_exact(ln, n):
    from math import isqrt

    d = isqrt(n)
    if d * d != n:
        raise ProfileError(ln, f"{n} entries do not form a square matrix")
    return d


def _rep_from_parsed(group, gen_mats, ring, precision, number_ring):
    if gen_mats and isinstance(gen_mats[0][0][0], PadicApprox):
        return _rep_from_padic(group, gen_mats, ring[1], precision)
    if number_ring is not None:
        return _rep_from_number_ring(group, gen_mats, number_ring)
    return rep_from_data(group, gen_mats)


def _rep_from_padic(group, gen_mats, p, precision):
    """Closure-verified approx MatRep; provable inconsistency is an error."""

    def provably_equal(a, b):
        return not any(x.provably_nonzero() for row in pmat_sub(a, b) for x in row)

    d = len(gen_mats[0])
    ident_mat = pmat_identity(d, p, precision)
    emap = close_over_group(group, gen_mats, ident_mat, pmat_mul, provably_equal,
                            LATTICE_GATE)
    ident = identity_perm(group.degree)
    faithful = not any(provably_equal(m, ident_mat)
                       for perm, m in emap.items() if perm != ident)
    return MatRep(group, gen_mats, emap, faithful, ("Zp", p), d)


def _rep_from_number_ring(group, gen_mats, number_ring):
    """Number-ring matrices are verified through the regular embedding."""
    k = number_ring.degree
    blown = []
    for m in gen_mats:
        d = len(m)
        big = [[Fraction(0)] * (d * k) for _ in range(d * k)]
        for i in range(d):
            for j in range(d):
                block = number_ring.mult_matrix(m[i][j])
                for a in range(k):
                    for b in range(k):
                        big[i * k + a][j * k + b] = block[a][b]
        blown.append(big)
    qrep = rep_from_data(group, blown)
    rep = MatRep(group, gen_mats, None, qrep.faithful,
                 ("NumberRing", tuple(number_ring.modulus)), len(gen_mats[0]))
    rep.element_map = None  # the regular embedding carries the verified map
    rep.regular_embedding = qrep
    return rep


# -- emission -----------------------------------------------------------------


def _fmt_entry(x):
    if isinstance(x, PadicApprox):
        return f"{x.residue(x.abs_prec)}:{x.abs_prec}"
    q = Fraction(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def emit_va_profile(profile):
    """Canonical text for a VaProfile; parse(emit(p)) reproduces it."""
    lines = [FORMAT_HEADER, "kind va"]
    lines.append(
        "ring Z" if profile.ring == "Z" else f"ring Z{profile.ring[1]}"
    )
    lines.append(f"rank {profile.rank}")
    lines.append(f"precision {profile.precision}")
    lines.append(f"degree {profile.Q.degree}")
    for g in profile.Q.generators:
        lines.append("gen " + " ".join(str(i) for i in g))
    for m in profile.action.gen_images:
        lines.append("mat " + " ".join(_fmt_entry(x) for row in m for x in row))
    return "\n".join(lines) + "\n"


def emit_permgroup(group):
    lines = [FORMAT_HEADER, "kind permgroup", f"degree {group.degree}"]
    for g in group.generators:
        lines.append("gen " + " ".join(str(i) for i in g))
    return "\n".join(lines) + "\n"


def emit_wreath(fiber_tag, p):
    return "\n".join(
        [FORMAT_HEADER, "kind wreath", f"fiber {fiber_tag}", f"prime {p}"]
    ) + "\n"
