"""Line-based profile files: parse with located diagnostics.

Format (version header required, '#' comments allowed):

    jigroup-profile v1
    kind va
    ring Z2
    rank 4
    precision 64
    degree 16
    gen 1 2 3 0 ...            # one per group generator, 0-based images
    mat 0 1 0 0 ... units      # one per gen, row-major entries

Entry tokens: integers, rationals "n/d", or p-adic approximations "r:k"
(residue r known mod p^k).  A matrix with a p-adic entry is known to the
least precision its entries state; the rep of a profile with such a matrix
is the approx rep of padic, every other rep is rational.  Kinds: va,
wreath, permgroup, matrep (a rational MatRep).
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import ratmat as rm
from .padic import DEFAULT_PRECISION, PadicMatrix, rep_from_approx
from .perm import PermGroup, check_perm, identity_perm
from .profiles import VaProfile
from .rep import RelationViolation, close_over_group, rep_from_data
from .zpoly import isprime

FORMAT_HEADER = "jigroup-profile v1"


class ProfileError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


def _tokenize(text):
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((ln, line))
    return out


def parse_profile(text):
    """Parse to exactly one domain object or raise a located ProfileError."""
    return _build(*_read_fields(text))


def parse_profile_kind(text, kind):
    """parse_profile for one kind; another kind is an error at the kind line."""
    fields, gens, mats = _read_fields(text)
    ln, found = fields["kind"]
    if found != kind:
        raise ProfileError(ln, f"expected kind {kind}, got {found!r}")
    return _build(fields, gens, mats)


def _read_fields(text):
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise ProfileError(line, f"not UTF-8: byte {text[exc.start]:#04x}")
    lines = _tokenize(text)
    if not lines:
        # nothing but blank lines and comments: the header is missing at line 1
        raise ProfileError(1, "empty profile")
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
                     "prime"):
            if key in fields:
                raise ProfileError(ln, f"duplicate field {key!r}")
            fields[key] = (ln, rest)
        else:
            raise ProfileError(ln, f"unknown field {key!r}")
    if "kind" not in fields:
        raise ProfileError(lines[-1][0], "missing kind")
    return fields, gens, mats


def _build(fields, gens, mats):
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
        raise ProfileError(fields["kind"][0], f"kind {kind} requires field {key!r}")
    return fields[key]


def _parse_int(ln, s, what):
    try:
        return int(s)
    except ValueError:
        raise ProfileError(ln, f"{what} must be an integer, got {s!r}")


def _parse_wreath(fields):
    from .wreath import PRIMES, SIMPLE_FIBERS, build_wreath_shadow

    ln1, fiber = _require(fields, "fiber", "wreath")
    if fiber not in SIMPLE_FIBERS:
        raise ProfileError(
            ln1, f"fiber must be one of {sorted(SIMPLE_FIBERS)}, got {fiber!r}")
    ln2, prime = _require(fields, "prime", "wreath")
    p = _parse_int(ln2, prime, "prime")
    if p not in PRIMES:
        raise ProfileError(ln2, f"prime must be one of {list(PRIMES)}, got {p}")
    return build_wreath_shadow(fiber, p)


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


def _parse_entry(ln, token, ring):
    if ":" in token:
        if not isinstance(ring, tuple):
            raise ProfileError(ln, "p-adic entry in a non-Zp profile")
        return Fraction(_parse_int(ln, token.partition(":")[0], "residue"))
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ProfileError(ln, f"bad matrix entry {token!r}")


def _parse_matrix_kind(kind, fields, gens, mats):
    ln, deg = _require(fields, "degree", kind)
    degree = _parse_int(ln, deg, "degree")
    perms = [_parse_perm(gl, s, degree) for gl, s in gens]
    if not perms:
        raise ProfileError(ln, f"kind {kind} requires gen lines")
    ring = _parse_ring(fields) or "Z"
    precision = DEFAULT_PRECISION
    if "precision" in fields:
        pl, ps = fields["precision"]
        precision = _parse_int(pl, ps, "precision")
        if precision < 1:
            raise ProfileError(pl, f"precision must be at least 1, got {precision}")
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
    # PermGroup drops identity generators, so pair each gen with its mat
    # first and keep the pairs aligned: an identity gen must map to the
    # identity matrix, and then the pair carries no information.
    kept_perms, gen_mats, mat_lines = [], [], []
    ident = identity_perm(degree)
    for perm, (ml, s) in zip(perms, mats):
        tokens = s.split()
        d = rank if rank is not None else _isqrt_exact(ml, len(tokens))
        if len(tokens) != d * d:
            raise ProfileError(ml, f"matrix needs {d}*{d} entries, got {len(tokens)}")
        entries = [_parse_entry(ml, t, ring) for t in tokens]
        rows = tuple(tuple(entries[i * d:(i + 1) * d]) for i in range(d))
        caps = [_parse_int(ml, t.partition(":")[2], "precision") for t in tokens if ":" in t]
        if caps and min(caps) < 1:
            raise ProfileError(ml, f"entry precision must be at least 1, got {min(caps)}")
        mat = PadicMatrix.from_rational(rows, ring[1], min(caps)) if caps else rows
        if perm == ident:
            if not _is_identity_matrix(mat):
                raise ProfileError(ml, "identity generator needs the identity matrix")
            continue
        kept_perms.append(perm)
        gen_mats.append(mat)
        mat_lines.append(ml)
    group = PermGroup(kept_perms, degree)
    try:
        if any(isinstance(m, PadicMatrix) for m in gen_mats):
            identity = PadicMatrix.identity(len(gen_mats[0]), ring[1], precision)
            rep = rep_from_approx(group, gen_mats, identity)
        elif gen_mats:
            rep = rep_from_data(group, gen_mats)
        else:  # every gen is the identity: the trivial group on Q^d
            rep = close_over_group(group, [], rm.identity(d), rm.mat_mul, operator.eq, "Q")
    except RelationViolation as exc:
        # located at the mat line of the last generator of the failing word
        raise ProfileError(mat_lines[exc.word[-1]], str(exc))
    except ValueError as exc:
        raise ProfileError(mats[0][0], str(exc))
    if kind == "matrep":
        return rep
    return VaProfile(ring, rank, rep, precision)


def _is_identity_matrix(m):
    """Whether m is the identity; a p-adic matrix counts to its cap."""
    if isinstance(m, PadicMatrix):
        return (m - PadicMatrix.identity(len(m), m.p, m.cap)).is_zero()
    return all(x == int(i == j) for i, row in enumerate(m) for j, x in enumerate(row))


def _isqrt_exact(ln, n):
    from math import isqrt

    d = isqrt(n)
    if d * d != n:
        raise ProfileError(ln, f"{n} entries do not form a square matrix")
    return d
