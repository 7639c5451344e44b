import io
import subprocess
import sys
from pathlib import Path

import pytest

from jigroup import catalog, fixtures
from jigroup.cli import run_command

import corpora
from oracles import minimal_block_systems

SRC = Path(__file__).resolve().parent.parent / "src"


def test_paper_examples_1():
    bundle = fixtures.paper_examples(1)
    shadow = bundle["shadow"]
    assert bundle["p"] == 2 and bundle["fiber"] == "A5"
    assert shadow.model.group.order == 60**4 * 8
    assert shadow.model.group.degree == 20  # minimal-degree fiber model
    # W is the non-normal order-2 translation subgroup of the dihedral top
    assert shadow.H.top_handle.order == 2
    assert not shadow.H.top_handle.is_normal_in_parent()
    assert shadow.model.top.order == 8


def test_paper_examples_2():
    bundle = fixtures.paper_examples(2)
    assert bundle["group"].order == 16
    assert bundle["rep8"].dimension == 8 and bundle["rep8"].faithful
    assert sorted(s.dimension for s in bundle["constituents"]) == [4, 4]
    assert bundle["profile"].rank == 4
    assert bundle["profile"].ring == ("Zp", 2)


def test_paper_examples_3():
    bundle = fixtures.paper_examples(3)
    assert bundle["group"].order == 128
    assert bundle["min_faithful_degree"] == 8
    assert bundle["character_degrees"].count(1) == 64
    assert bundle["cited"]["double_cover_alt8_min_faithful_degree"] == 8


def test_paper_examples_bad_id():
    with pytest.raises(ValueError):
        fixtures.paper_examples(4)


def test_verify_paper_1_cli():
    out = io.StringIO()
    status, report = run_command(["verify-paper", "1"], out)
    assert status == 0
    assert report["all_passed"]
    text = out.getvalue()
    assert "unique maximal M" in text
    assert "FAIL" not in text


def test_verify_paper_2_cli():
    out = io.StringIO()
    status, report = run_command(["verify-paper", "2"], out)
    assert status == 0
    text = out.getvalue()
    assert "irreducible over Q" in text
    assert "index <= 2" in text
    assert "quaternionic type" in text
    assert "FAIL" not in text


def test_shadow_corpus_orders():
    corpus = corpora.shadow_corpus(fibers=("A5",))
    by_name = dict(corpus)
    assert by_name["A5-wr-C2"].group.order == 60**2 * 2
    assert by_name["A5-wr-S3"].group.order == 60**3 * 6
    for _, model in corpus:
        assert model.group.order == (
            model.fiber_group_order ** len(model.fibers) * model.top.order
        )


def test_primitive_corpus_members_are_primitive():
    for name, G in corpora.primitive_corpus():
        _, primitive = minimal_block_systems(G)
        assert primitive, name


def test_corrupted_construction_raises_certificate_error_under_O():
    # PSL(2,7) built from its first generator alone has order 7, not 168
    script = (
        "from jigroup import catalog\n"
        "from jigroup.perm import PermGroup\n"
        "from jigroup.verdicts import CertificateError\n"
        "assert False, 'asserts are on'\n"
        "catalog.PermGroup = lambda gens: PermGroup(gens[:1])\n"
        "try:\n"
        "    catalog.psl27(7)\n"
        "except CertificateError as exc:\n"
        "    print('rejected:', exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={"PYTHONPATH": str(SRC)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: PSL(2,7) has the wrong order\n"


def test_metacyclic_twist_must_be_an_involution():
    with pytest.raises(ValueError, match="involution"):
        catalog._metacyclic_regular(8, 2, 0)
