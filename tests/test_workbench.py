import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdgl.freelie import Truncation
from cdgl.models import builtin_model, circle_model
from cdgl.workbench import parse_document, run_task, workspace_from_text
from cdgl.workbench.ast import (Br, DerivationNode, DiffDecl, Document, ExpAd,
                                Expr, FiltDecl, GenDecl, HomotopyNode, McDecl,
                                ModelNode, MorphismNode, Ref, Term, TruncDecl,
                                print_document)
from cdgl.workbench.parser import BLOCK_KEYWORDS, DECL_KEYWORDS
from cdgl.workbench.report import canonical
from cdgl.workbench.tasks import Task

from oracles import export_source

DATA = os.path.join(os.path.dirname(__file__), "data")


def read(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return fh.read()


# -- parsing --------------------------------------------------------------------

def test_parse_minimal_model():
    doc, diags = parse_document("model S { gen x : 2  d x = 0 * x }")
    assert not [d for d in diags if d.severity == "error"]
    m = doc.models()[0]
    assert m.name == "S"
    assert any(getattr(d, "name", None) == "x" for d in m.decls)


def test_parse_circle_source_elaborates_to_builtin():
    ws, _ = workspace_from_text(read("s1.cdgl"))
    assert not [d for d in ws.diags if d.severity == "error"]
    L = ws.model("S1")
    builtin = circle_model(Truncation(5))
    assert {g.name: g.degree for g in L.gens} == \
        {g.name: g.degree for g in builtin.gens}
    for g, bg in zip(L.gens, builtin.gens):
        assert L.d_on_gens[g].terms == builtin.d_on_gens[bg].terms


def test_unknown_generator_diagnostic_position():
    doc, diags = parse_document("model M {\n  gen x : 2\n  d x = [x, y]\n}")
    ws, _ = workspace_from_text("model M {\n  gen x : 2\n  d x = [x, y]\n}")
    errs = [d for d in ws.diags if d.severity == "error"]
    assert errs and "unknown generator y" in errs[0].message
    assert errs[0].line == 3


def test_error_corpus_produces_positioned_diagnostics():
    for i in range(1, 11):
        name = "errors/e%02d.cdgl" % i
        ws, _ = workspace_from_text(read(name))
        errs = [d for d in ws.diags if d.severity == "error"]
        assert errs, "expected diagnostics for %s" % name
        assert all(d.line >= 1 and d.col >= 1 for d in errs)


def test_error_corpus_diagnostic_counts():
    counts = []
    for i in range(1, 11):
        ws, _ = workspace_from_text(read("errors/e%02d.cdgl" % i))
        counts.append(len(ws.diags))
    assert counts == [1, 1, 2, 1, 1, 1, 1, 2, 3, 1]


@pytest.mark.parametrize("name, source", [
    ("build_dgl", "s1.cdgl"),
    ("DGLMorphism", "wedge_spheres.cdgl"),
    ("MCElement", None),
])
def test_engine_errors_in_elaboration_propagate(monkeypatch, name, source):
    # a model that fails a check becomes a diagnostic (ValueError), but an
    # engine bug such as a TypeError must not
    import cdgl.workbench.elaborate as elaborate

    def broken(*args, **kwargs):
        raise TypeError("engine bug")

    monkeypatch.setattr(elaborate, name, broken)
    text = read(source) if source else "model M {\n  gen b : -1\n  mc a = 0 * b\n}"
    with pytest.raises(TypeError, match="engine bug"):
        workspace_from_text(text)


def test_parser_never_crashes_on_corpus():
    for i in range(1, 11):
        doc, diags = parse_document(read("errors/e%02d.cdgl" % i))
        assert doc is not None


# the symbols lex reads: "->" and the characters it takes one at a time
SYMBOLS = ("->", "{", "}", "(", ")", "[", "]", ",", ":", "=", "+", "-", "*",
           "/", "^", "|")
KEYWORDS = sorted(BLOCK_KEYWORDS | DECL_KEYWORDS | {"exp", "ad", "t", "dt", "degree"})
TOKENS = st.one_of(st.sampled_from(SYMBOLS + tuple(KEYWORDS) + ("\n",)),
                   st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
                   st.integers(0, 10 ** 6).map(str))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TOKENS, st.sampled_from([" ", "", "\n"])), max_size=40))
def test_parser_is_total_on_token_streams(stream):
    text = "".join(tok + sep for tok, sep in stream)
    doc, diags = parse_document(text)
    assert doc is not None
    lines = text.split("\n")
    for d in diags:
        assert 1 <= d.line <= len(lines), (text, d)
        assert 1 <= d.col <= len(lines[d.line - 1]) + 1, (text, d)


# -- printing -------------------------------------------------------------------

CORPUS = ["s1.cdgl", "sphere2.cdgl", "wedge_homotopy.cdgl", "wedge_spheres.cdgl"]


def test_roundtrip_parse_print_parse_on_corpus():
    for name in CORPUS:
        doc, diags = parse_document(read(name))
        assert not [d for d in diags if d.severity == "error"], name
        printed = print_document(doc)
        doc2, diags2 = parse_document(printed)
        assert not [d for d in diags2 if d.severity == "error"], name
        assert print_document(doc2) == printed, name


def test_print_is_idempotent_on_builtin_exports():
    for ref, params in (("sphere", (2,)), ("sphere", (3,)), ("wedge", (1, 1)),
                        ("S1", ()), ("L1", ()), ("L0", ())):
        L = builtin_model(ref, params, Truncation(4))
        src = export_source(L)
        doc, diags = parse_document(src)
        assert not [d for d in diags if d.severity == "error"], ref
        printed = print_document(doc)
        doc2, _ = parse_document(printed)
        assert print_document(doc2) == printed


def test_ast_value_nodes_compare_by_class_and_fields():
    x = Expr((Term(Fraction(1), atom=Ref("x")),))
    y = Expr((Term(Fraction(-1, 2), 1, True, Ref("y")),))
    assert Br(x, y) == Br(x, y) and hash(Br(x, y)) == hash(Br(x, y))
    assert Br(x, y) != ExpAd(x, y) and ExpAd(x, y) != Br(x, y)
    assert Br(x, y) != Br(y, x)
    assert len({Br(x, y), Br(x, y), ExpAd(x, y), Ref("x")}) == 3
    assert Term(Fraction(1)) == Term(Fraction(1), 0, False, None)
    assert Term(Fraction(1), dt=True) != Term(Fraction(1))
    assert Ref("x") != Ref("y") and Ref("x") != "x"
    assert Expr(()) == Expr(()) and Expr(()) != ()
    for node, name in ((Ref("x"), "name"), (Br(x, y), "left"),
                       (ExpAd(x, y), "target"), (Term(Fraction(1)), "coeff"),
                       (x, "terms")):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)


# random documents in the printer's normal form: nonzero coefficients, and
# names that the lexer reads as one identifier and no keyword claims (some
# start like a keyword)
_RESERVED = BLOCK_KEYWORDS | DECL_KEYWORDS | {"t", "dt", "exp", "ad", "degree"}
_NAMES = ["x", "y1", "_u", "W", "t2", "dt_", "expo", "ad0", "gen2", "d_x",
          "mcb", "model1", "degrees"]
_names = st.sampled_from(_NAMES)
_coeffs = st.fractions(-20, 20, max_denominator=12).filter(bool)


def _exprs(atoms):
    terms = st.builds(Term, _coeffs, st.integers(0, 3), st.booleans(),
                      st.none() | atoms)
    return st.lists(terms, max_size=3).map(lambda ts: Expr(tuple(ts)))


_atoms = st.recursive(
    st.builds(Ref, _names),
    lambda inner: st.builds(Br, _exprs(inner), _exprs(inner))
    | st.builds(ExpAd, _exprs(inner), _exprs(inner)),
    max_leaves=4)
_expr = _exprs(_atoms)
_decls = st.one_of(
    st.builds(GenDecl, _names, st.integers(-3, 5)),
    st.builds(DiffDecl, _names, _expr),
    st.builds(McDecl, _names, st.none() | _expr),
    st.builds(FiltDecl, _names,
              st.lists(st.lists(_names, max_size=3).map(tuple), max_size=3).map(tuple)),
    st.builds(TruncDecl, st.integers(0, 9), st.none() | st.integers(-3, 9)))
_assigns = st.lists(st.tuples(_names, _expr, st.just((0, 0))), max_size=3)
_documents = st.lists(st.one_of(
    st.builds(ModelNode, _names, st.lists(_decls, max_size=4)),
    st.builds(MorphismNode, _names, _names, _names, _assigns),
    st.builds(DerivationNode, _names, _names, st.none() | st.integers(-2, 3),
              _assigns),
    st.builds(HomotopyNode, _names, _names, _names, _assigns)),
    max_size=4).map(Document)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_documents)
def test_print_parse_print_on_random_documents(doc):
    assert not _RESERVED & set(_NAMES)
    printed = print_document(doc)
    doc2, diags = parse_document(printed)
    assert not diags, (printed, [str(d) for d in diags])
    assert print_document(doc2) == printed


def test_builtin_export_elaborates_to_equal_presentation():
    for ref, params in (("S1", ()), ("L1", ()), ("wedge", (2, 2))):
        L = builtin_model(ref, params, Truncation(4))
        ws, _ = workspace_from_text(export_source(L, name="M"))
        assert not [d for d in ws.diags if d.severity == "error"]
        M = ws.model("M")
        assert {g.name: g.degree for g in M.gens} == \
            {g.name: g.degree for g in L.gens}
        for g, bg in zip(M.gens, L.gens):
            assert M.d_on_gens[g].terms == L.d_on_gens[bg].terms


# -- tasks ------------------------------------------------------------------------

def test_check_task_pass():
    rep = run_task(Task("check", file_text=read("s1.cdgl")))
    assert rep.exit_code() == 0
    assert "PASS" in rep.notes


def test_check_task_diagnostics_exit_code():
    rep = run_task(Task("check", file_text=read("errors/e01.cdgl")))
    assert rep.exit_code() == 1
    assert rep.status == "diagnostics"


def test_check_builtin_interval():
    rep = run_task(Task("check", model_ref="L1", trunc=8,
                        check_stability=False))
    assert rep.exit_code() == 0


def test_homology_requires_range():
    rep = run_task(Task("homology", model_ref="sphere(3)"))
    assert rep.exit_code() == 1


@pytest.mark.parametrize("command", ["homology", "pi-map", "baut", "bautstar"])
def test_missing_or_reversed_range_is_a_diagnostic(command, capsys):
    # a reversed range is refused, not run as an empty or one-degree window
    from cdgl.workbench.cli import main
    argv = [command, "--model", "wedge(2,3)", "--truncate", "3", "--format",
            "canonical"]
    for extra, message in [
            ([], "%s needs an explicit --range a..b" % command),
            (["--range", "5..2"],
             "%s needs a range a..b with a <= b, got 5..2" % command)]:
        code = main(argv + extra)
        out, err = capsys.readouterr()
        assert code == 1 and "status = diagnostics" in out
        assert "diagnostic = 0:0 error %s\n" % message in out
        assert "Traceback" not in out + err


@pytest.mark.parametrize("command", ["pi-map", "baut", "bautstar"])
def test_range_with_no_positive_degree_is_a_diagnostic(command, capsys):
    # these commands answer in degrees >= 1; a range below that is refused,
    # not answered for degree 1, which the user did not ask for
    from cdgl.workbench.cli import main
    argv = [command, "--model", "wedge(2,3)", "--truncate", "3", "--format",
            "canonical"]
    for window in ("0..0", "-2..0"):
        code = main(argv + ["--range=" + window])
        out, err = capsys.readouterr()
        assert code == 1 and "status = diagnostics" in out
        assert ("diagnostic = 0:0 error %s needs a range that reaches degree 1, "
                "got %s\n" % (command, window)) in out
        assert "Traceback" not in out + err
    # a range that reaches degree 1 still answers from degree 1
    code = main(argv + ["--range=0..1"])
    out, _ = capsys.readouterr()
    assert code == 0 and "status = ok" in out


def test_homology_sphere_report():
    rep = run_task(Task("homology", model_ref="sphere(3)",
                        degree_range=(0, 4)))
    assert rep.exit_code() == 0
    assert rep.tables["homology"]["H_2"] == 1
    assert rep.stability == "green"


def test_bch_task():
    rep = run_task(Task("bch", model_ref="wedge(1,1)", trunc=2,
                        exprs={"x": "x", "y": "y"}, check_stability=False))
    assert rep.tables["bch"]["result"] == "x + y + 1/2 * [x,y]"
    # a word outside the basis of the degree asked for is refused
    from cdgl.exactlin import NotInSpanError
    L = builtin_model("wedge", (1, 2, 1), Truncation(4))
    x, y = L.gen("x"), L.gen("y")
    for e, degree in ((x, 1), (x + y, 0), (y, 0)):
        with pytest.raises(NotInSpanError):
            L.coords(e, degree)


def test_gauge_task_and_equiv():
    rep = run_task(Task("gauge", model_ref="L1", trunc=5,
                        exprs={"x": "x", "a": "a"}, check_stability=False))
    assert rep.tables["gauge"]["result"] == "b"
    rep2 = run_task(Task("gauge-equiv", model_ref="L1", trunc=4,
                         exprs={"a": "a", "b": "b"}, check_stability=False))
    assert rep2.tables["gauge_equiv"]["equivalent"] is True


def test_gauge_equiv_negative():
    rep = run_task(Task("gauge-equiv", model_ref="S1", trunc=4,
                        exprs={"a": "0 * b", "b": "b"}, check_stability=False))
    assert rep.tables["gauge_equiv"]["equivalent"] is False


def test_exp_log_tasks():
    text = read("wedge_spheres.cdgl")
    rep = run_task(Task("exp", file_text=text, names={"derivation": "slide"}))
    assert rep.tables["exp"]["x"] == "x + y"
    rep2 = run_task(Task("log", file_text=text, names={"morphism": "shear"}))
    assert rep2.tables["log"]["x"] == "y"


def test_exp_refuses_a_derivation_of_nonzero_degree():
    # x -> y raises degree by 1: its exponential is no morphism, so exp
    # refuses it before summing the series
    text = ("model A {\n  truncate 3\n  gen x : 2\n  gen y : 3\n}\n\n"
            "derivation up : A {\n  x -> y\n}\n")
    rep = run_task(Task("exp", file_text=text, names={"derivation": "up"}))
    assert rep.status == "diagnostics" and rep.exit_code() == 1
    (diag,) = rep.diagnostics
    assert diag.message == "exp needs a degree-0 derivation; 'up' has degree 1"


def test_h0_task_wedge():
    rep = run_task(Task("h0", model_ref="wedge(1,1)", trunc=2,
                        check_stability=False))
    assert rep.tables["h0"]["dimension"] == 3
    assert rep.tables["h0"]["nilpotency_class"] == 2


def test_pi_map_task():
    rep = run_task(Task("pi-map", model_ref="sphere(3)", trunc=3,
                        degree_range=(1, 5), names={"morphism": "id"}))
    assert rep.tables["pi_free"]["pi_3"] == 1
    assert rep.stability == "green"


def test_pi_map_over_a_range_with_a_gap(capsys):
    # --range 3..4 runs the degrees [0, 1, 3, 4]; the connecting map at 3
    # lands in H_2 of the pointed complex, which is taken too
    from cdgl.workbench.cli import main
    code = main(["pi-map", "--model", "wedge(2,3)", "--range", "3..4",
                 "--truncate", "3", "--format", "canonical"])
    out, err = capsys.readouterr()
    assert code == 0 and "Traceback" not in out + err
    assert "note.0 = LES exactness verified at degrees [0, 1, 3, 4]\n" in out
    assert "pi_pointed.pi_3 = 2\n" in out and "pi_free.pi_3 = 1\n" in out


def test_pi_map_gap_checks_the_slot_where_the_connecting_map_lands(monkeypatch,
                                                                   capsys):
    # conn[3] lands in H_2 of the pointed complex: the sequence is checked
    # at H_2(A) as well, and the note is the same as without the check
    from cdgl import exactlin
    from cdgl.workbench.cli import main
    slots = []
    check = exactlin._exact

    def record(fin, fout, slot):
        slots.append(slot)
        return check(fin, fout, slot)

    monkeypatch.setattr(exactlin, "_exact", record)
    code = main(["pi-map", "--model", "wedge(2,3)", "--range", "3..4",
                 "--truncate", "3", "--format", "canonical", "--no-stability"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "note.0 = LES exactness verified at degrees [0, 1, 3, 4]\n" in out
    assert "H_2(A)" in slots
    assert slots == ["H_0(B)", "H_0(C)", "H_1(B)", "H_1(C)", "H_0(A)",
                     "H_3(B)", "H_3(C)", "H_2(A)", "H_4(B)", "H_4(C)", "H_3(A)"]


def test_pi_map_takes_model_and_cap_from_a_file_morphism():
    # the file declares two models; the morphism names its source, so no
    # --model is needed, and the report is the one --model S1 gives
    text = read("wedge_homotopy.cdgl")
    by_morphism = run_task(Task("pi-map", file_text=text, degree_range=(1, 2),
                                names={"morphism": "f"}))
    by_model = run_task(Task("pi-map", file_text=text, model_ref="S1",
                             degree_range=(1, 2), names={"morphism": "f"}))
    assert by_morphism.status == "ok" and by_morphism.caps["truncation"] == 5
    assert (canonical(by_morphism).splitlines()[1:]
            == canonical(by_model).splitlines()[1:])
    capped = run_task(Task("pi-map", file_text=text, trunc=3, degree_range=(1, 2),
                           names={"morphism": "f"}))
    assert capped.status == "ok" and capped.caps["truncation"] == 3


@pytest.mark.parametrize("command, degree_range", [
    ("homology", (-1, 1)), ("h0", None), ("pi-map", (1, 2))])
def test_a_model_ill_formed_at_cap_plus_one_keeps_the_answer(monkeypatch, command,
                                                             degree_range):
    # the d of two_intervals.cdgl is a series cut at its cap 4, so W is
    # ill-formed at cap 5: the cap-4 answer stands as --no-stability gives
    # it, with the flag red and a note naming cap 5 and the model's error
    import cdgl.workbench.tasks as tasks
    text = read("two_intervals.cdgl")
    rep = run_task(Task(command, file_text=text, degree_range=degree_range))
    plain = run_task(Task(command, file_text=text, degree_range=degree_range,
                          check_stability=False))
    assert rep.status == plain.status == "ok" and rep.stability == "red"
    assert rep.tables == plain.tables
    assert rep.notes[-1] == (
        "stability re-run at cap 5 failed: model W is ill-formed: d^2 != 0 on "
        "generator x (first nonzero bracket length 5)")
    # an engine error in the re-run is not caught
    if command == "h0":
        h0_group = tasks.h0_group

        def broken(L):
            if L.trunc.max_bracket_length == 3:
                raise KeyError("engine bug")
            return h0_group(L)

        monkeypatch.setattr(tasks, "h0_group", broken)
        with pytest.raises(KeyError):
            run_task(Task("h0", model_ref="wedge(1,1)", trunc=2))


@pytest.mark.parametrize("command, degree_range, built", [
    ("pi-map", (1, 4), {"les_of_ses": 1, "nilpotency": 0}),
    ("baut", (1, 4), {"les_of_ses": 0, "nilpotency": 1}),
    ("bautstar", (1, 3), {"les_of_ses": 0, "nilpotency": 1})])
def test_certified_run_builds_les_and_nilpotency_once(monkeypatch, command,
                                                      degree_range, built):
    # the answer run reads the sequence and the index; the cap + 1 re-run
    # computes only what its stability key compares
    import cdgl.derivations as derivations
    calls = {name: 0 for name in built}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in built:
        monkeypatch.setattr(derivations, name, counted(name, getattr(derivations, name)))
    rep = run_task(Task(command, model_ref="wedge(2,2)", trunc=3,
                        degree_range=degree_range))
    assert rep.status == "ok" and rep.stability in ("green", "red")
    assert calls == built


def test_baut_task_sphere2():
    rep = run_task(Task("baut", model_ref="sphere(2)", trunc=4,
                        degree_range=(1, 6)))
    table = rep.tables["pi_baut"]
    assert table["pi_4"] == 1
    assert all(v == 0 for k, v in table.items() if k != "pi_4")
    assert rep.stability == "green"


def test_baut_stabilizer_from_file():
    rep = run_task(Task("baut", file_text=read("wedge_spheres.cdgl"),
                        model_ref="W3", degree_range=(1, 5),
                        gspec="stabilizer:F", check_stability=False))
    assert rep.tables["group"]["dimension"] == 1
    assert rep.tables["group"]["abelian"] is True


def test_witness_task():
    text = read("wedge_homotopy.cdgl")
    rep = run_task(Task("witness", file_text=text, poly_cap=6,
                        names={"homotopy": "Psi", "from": "f", "to": "g"},
                        check_stability=False))
    assert rep.tables["witness"]["accepted"] is True


def test_reports_deterministic():
    t = Task("h0", model_ref="wedge(1,1)", trunc=2, check_stability=False)
    a = canonical(run_task(t))
    b = canonical(run_task(t))
    assert a == b


def test_resource_limit_exit_code(monkeypatch):
    monkeypatch.setenv("CDGL_RESOURCE_LIMIT", "1")
    rep = run_task(Task("homology", model_ref="wedge(1,1)", trunc=4,
                        degree_range=(0, 1), check_stability=False))
    assert rep.exit_code() == 2
    monkeypatch.delenv("CDGL_RESOURCE_LIMIT")


def test_malformed_resource_limit_is_a_diagnostic(monkeypatch):
    for raw in ("lots", "0", "-3", "2.5"):
        monkeypatch.setenv("CDGL_RESOURCE_LIMIT", raw)
        rep = run_task(Task("homology", model_ref="wedge(1,1)", trunc=2,
                            degree_range=(0, 1), check_stability=False))
        assert rep.status == "diagnostics" and rep.exit_code() == 1
        (diag,) = rep.diagnostics
        assert (diag.line, diag.col, diag.severity) == (0, 0, "error")
        assert "CDGL_RESOURCE_LIMIT" in diag.message and repr(raw) in diag.message
    monkeypatch.delenv("CDGL_RESOURCE_LIMIT")


def test_chains_word_count_is_held_to_the_resource_limit(monkeypatch, capsys):
    # wedge(2,2) at cap 2 has 18 chain words at word cap 2, while its largest
    # Lie basis has 3 elements, so only the chains guard can trip
    from cdgl.workbench.cli import main
    monkeypatch.setenv("CDGL_RESOURCE_LIMIT", "5")
    code = main(["gamma", "--model", "wedge(2,2)", "--word-cap", "2",
                 "--truncate", "2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 2
    assert "status = resource-limit" in out and "chains" in out


def test_builtin_errors_are_reported_as_they_are():
    # a builtin's own ValueError is the diagnostic; only a name that is not
    # a builtin is looked up as a model reference
    cases = [(Task("homology", model_ref="sphere(0)", degree_range=(0, 2)),
              "sphere dimension must be >= 1"),
             (Task("homology", model_ref="wedge(1,1)", trunc=-1,
                   degree_range=(0, 2)), "truncation cap must be >= 1"),
             (Task("check", model_ref="wedge()"),
              "wedge needs sphere dimensions >= 1"),
             (Task("check", model_ref="nope(1)"),
              "unknown model reference 'nope(1)'")]
    for task, message in cases:
        rep = run_task(task)
        assert rep.status == "diagnostics" and rep.exit_code() == 1
        assert [d.message for d in rep.diagnostics] == [message]
    rep = run_task(Task("check", file_text=read("wedge_spheres.cdgl"),
                        model_ref="W3"))
    assert rep.exit_code() == 0


def test_degree_cap_drops_the_degrees_over_it():
    # words of degree 4 are over the cap, so H_4 is zero; the basis used to
    # hand out zero elements with their labels there and count them
    text = "model M { truncate 4 degree 3  gen x : 1  gen y : 1 }"
    rep = run_task(Task("homology", file_text=text, degree_range=(0, 6)))
    assert rep.status == "ok" and rep.stability == "green"
    assert [rep.tables["homology"]["H_%d" % n] for n in range(7)] == [0, 2, 3, 2, 0, 0, 0]
    assert "H_4" not in rep.tables["representatives"]
    ws, _ = workspace_from_text(text)
    L = ws.models["M"].presentation
    assert L.basis(3) and L.basis(4) == []


def test_degree_cap_with_negative_generator_is_refused():
    # without generators of degree >= 0 the words over a degree cap form no
    # ideal: homology reported [b,[y,y]] as a class and dropped [y,y], and the
    # twisted model below passed check, then failed inside the engine
    message = ("model M is ill-formed: a degree cap needs generators of "
               "degree >= 0, but b has degree -1")
    bare = "model M { truncate 4 degree 1  gen b : -1  gen y : 1 }"
    twisted = ("model M { truncate 4 degree 1  gen b : -1  gen y : 1  gen x : 0"
               "  d b = -1/2 * [b, b]  d y = -1 * [y, b]  d x = [x, b]  mc b }")
    for text in (bare, twisted):
        tasks = [Task("check", file_text=text),
                 Task("homology", file_text=text, degree_range=(-2, 2)),
                 Task("h0", file_text=text),
                 Task("gauge-equiv", file_text=text, exprs={"a": "b", "b": "b"})]
        for task in tasks:
            rep = run_task(task)
            assert rep.status == "diagnostics" and rep.exit_code() == 1, task
            assert [d.message for d in rep.diagnostics] == [message]


def test_builtin_without_parameters_refuses_them():
    for ref in ("L0(1)", "L1(3)", "S1(2)"):
        rep = run_task(Task("check", model_ref=ref))
        assert rep.status == "diagnostics" and rep.exit_code() == 1
        assert [d.message for d in rep.diagnostics] == [
            "%s takes no parameters" % ref.split("(")[0]]


def test_missing_model_file_is_a_diagnostic(tmp_path, capsys):
    from cdgl.workbench.cli import main
    missing = str(tmp_path / "nosuchfile.cdgl")
    code = main(["homology", missing, "--range", "0..2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status = diagnostics" in out
    assert ("cannot read model file %s: No such file or directory" % missing) in out


def test_non_utf8_model_file_is_a_diagnostic(tmp_path, capsys):
    from cdgl.workbench.cli import main
    path = tmp_path / "bin.cdgl"
    path.write_bytes(b"\xff\xfe")
    code = main(["homology", str(path), "--range", "0..2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status = diagnostics" in out
    assert ("cannot read model file %s: not UTF-8 text" % path) in out


def test_truncate_zero_is_a_diagnostic(capsys):
    # a cap of 0 is refused, not replaced by the default cap
    from cdgl.workbench.cli import main
    code = main(["homology", "--model", "wedge(1,1)", "--truncate", "0",
                 "--range", "0..2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "cdgl homology --model wedge(1,1) --truncate 0 --range 0..2" in out
    assert "status = diagnostics" in out and "truncation cap must be >= 1" in out
    assert "caps.truncation" not in out
    rep = run_task(Task("check", file_text=read("s1.cdgl"), trunc=0))
    assert rep.status == "diagnostics"
    assert [d.message for d in rep.diagnostics] == ["truncation cap must be >= 1"]


def test_negative_poly_cap_is_a_diagnostic(capsys):
    # a negative polynomial cap is refused as an argument, as a truncation
    # cap of 0 is, not reported as a polynomial cap that a form exceeds
    from cdgl.workbench.cli import main
    code = main(["witness", os.path.join(DATA, "wedge_homotopy.cdgl"), "--homotopy", "Psi",
                 "--from", "f", "--to", "g", "--poly-cap", "-1", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status = diagnostics" in out
    assert "diagnostic = 0:0 error polynomial cap must be >= 0" in out
    assert "resource-limit" not in out and "exceeds cap" not in out


@pytest.mark.parametrize("argv", [
    ["--model", "S1", "--word-cap", "2", "--truncate", "3"],
    ["--model", "S1", "--word-cap", "1", "--truncate", "3"],
    [os.path.join(DATA, "wedge_homotopy.cdgl"), "--morphism", "f"]],
    ids=["S1-word-cap-2", "S1-word-cap-1", "file-morphism-f"])
def test_gamma_refuses_a_source_of_negative_degree(argv, monkeypatch, capsys):
    # the chains of such a source would hold generators of degree < -1; the
    # source is refused before they are built, naming the user's generator
    import cdgl.derivations
    from cdgl.workbench.cli import main

    def unreachable(*args):
        raise AssertionError("chains built")

    monkeypatch.setattr(cdgl.derivations, "chains_functor", unreachable)
    code = main(["gamma"] + argv + ["--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1 and "status = diagnostics" in out
    assert ("diagnostic = 0:0 error gamma needs a source with generators of "
            "degree >= 0, but b has degree -1") in out


@pytest.mark.parametrize("word_cap", ["0", "-1"])
def test_gamma_refuses_a_word_cap_below_one(word_cap, capsys):
    # such a cap leaves the chains no generator; it is refused as an
    # argument, as a truncation cap of 0 is, not met as an engine error
    from cdgl.workbench.cli import main
    code = main(["gamma", "--model", "wedge(2,2)", "--word-cap", word_cap,
                 "--truncate", "2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1 and "status = diagnostics" in out
    assert "diagnostic = 0:0 error word cap must be >= 1" in out
    assert "caps.word_cap" not in out


def test_no_diagnostic_message_starts_with_a_quote():
    homotopy = read("wedge_homotopy.cdgl").replace("b -> -1 * dt * u",
                                                   "z -> -1 * dt * u")
    # slide is declared on W3: a second model of the file, or a builtin
    # model with the same generators, must not take it
    two_models = read("wedge_spheres.cdgl") + "model V {\n  gen u : 2\n  gen v : 2\n}\n"
    tasks = [
        Task("check", model_ref="nope"),
        Task("check", file_text=read("s1.cdgl"), model_ref="nope"),
        Task("exp", model_ref="S1", names={"derivation": "zz"}),
        Task("log", model_ref="S1", names={"morphism": "zz"}),
        Task("pi-map", model_ref="S1", degree_range=(1, 2),
             names={"morphism": "zz"}),
        Task("gamma", model_ref="S1", names={"morphism": "zz"}),
        Task("baut", model_ref="S1", degree_range=(1, 2), gspec="stabilizer:F"),
        Task("baut", model_ref="S1", degree_range=(1, 2), gspec="span:s"),
        Task("baut", file_text=read("wedge_spheres.cdgl"), degree_range=(1, 2),
             gspec="stabilizer:G"),
        Task("baut", file_text=read("wedge_spheres.cdgl"), degree_range=(1, 2),
             gspec="span:nope"),
        Task("baut", file_text=two_models, model_ref="V", degree_range=(1, 3),
             gspec="span:slide"),
        Task("bautstar", file_text=read("wedge_spheres.cdgl"),
             model_ref="wedge(3,3)", degree_range=(1, 3), gspec="span:slide"),
        Task("baut", file_text=read("wedge_spheres.cdgl"),
             model_ref="wedge(3,3)", degree_range=(1, 3), gspec="stabilizer:F"),
        Task("witness", file_text=read("wedge_homotopy.cdgl"),
             names={"homotopy": "nope", "from": "f", "to": "g"}),
        Task("witness", file_text=read("wedge_homotopy.cdgl"),
             names={"homotopy": "Psi"}),
        Task("witness", file_text=homotopy,
             names={"homotopy": "Psi", "from": "f", "to": "g"}),
    ]
    messages = []
    for task in tasks:
        rep = run_task(task)
        assert rep.status == "diagnostics", task
        (diag,) = rep.diagnostics
        assert diag.message[:1] not in ("'", '"'), diag.message
        messages.append(diag.message)
    assert messages.count("derivation 'slide' is declared on model W3") == 2
    assert "filtration 'F' is declared on model W3" in messages
    assert diag.message == "unknown generator z"


def test_span_that_does_not_act_nilpotently_is_a_diagnostic():
    # scale (x -> x) is a bracket-closed D-cycle, but the group it spans
    # does not act nilpotently on the generators
    text = read("wedge_spheres.cdgl") + "derivation scale : W3 {\n  x -> x\n}\n"
    for command in ("baut", "bautstar"):
        rep = run_task(Task(command, file_text=text, degree_range=(1, 4),
                            gspec="span:scale"))
        assert rep.status == "diagnostics" and rep.exit_code() == 1
        assert [d.message for d in rep.diagnostics] == [
            "span + R0 does not act nilpotently on the generators (the group "
            "must act nilpotently)"]
    rep = run_task(Task("bautstar", file_text=text, degree_range=(1, 4),
                        gspec="span:slide"))
    assert rep.status == "ok" and rep.tables["invariants"]["der0_dimension"] == 1


def test_file_with_several_models_and_no_model_choice_is_a_diagnostic(capsys):
    from cdgl.workbench.cli import main
    code = main(["homology", os.path.join(DATA, "wedge_homotopy.cdgl"),
                 "--range", "0..2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status = diagnostics" in out
    assert "the file declares models S1, W; choose one with --model" in out
    # commands that read named objects of the file still run on it
    rep = run_task(Task("witness", file_text=read("wedge_homotopy.cdgl"),
                        names={"homotopy": "Psi", "from": "f", "to": "g"},
                        check_stability=False))
    assert rep.status == "ok" and rep.tables["witness"]["accepted"] is True
    rep = run_task(Task("log", file_text=read("wedge_homotopy.cdgl"),
                        names={"morphism": "f"}))
    assert [d.message for d in rep.diagnostics] == ["log expects an automorphism"]


def test_no_model_file_and_no_model_is_a_diagnostic(capsys):
    from cdgl.workbench.cli import main
    code = main(["homology", "--range", "0..2", "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 1
    assert "status = diagnostics" in out
    assert "homology needs a model file or --model" in out


def test_engine_key_error_is_not_a_diagnostic(monkeypatch):
    import cdgl.workbench.tasks as tasks

    def broken(L):
        raise KeyError("engine bug")

    monkeypatch.setattr(tasks, "h0_group", broken)
    with pytest.raises(KeyError):
        run_task(Task("h0", model_ref="wedge(1,1)", trunc=2))


# -- CLI ------------------------------------------------------------------------

# the command surface, as `cdgl --help` lists it: command -> its help line
CLI_COMMANDS = {
    "check": "validate a model file or builtin",
    "homology": "homology table of a model",
    "bch": "Baker-Campbell-Hausdorff product",
    "gauge": "gauge action of x on an MC element a",
    "gauge-equiv": "decide gauge equivalence of two MC elements",
    "exp": "exponential of a declared derivation",
    "log": "logarithm of a declared automorphism",
    "h0": "H_0 with the BCH product",
    "pi-map": "mapping-space homotopy groups at a morphism",
    "baut": "free classifying-space invariants",
    "bautstar": "pointed classifying-space invariants",
    "witness": "verify a declared homotopy witness",
    "gamma": "verify the suspension-comparison isomorphism for a morphism",
}


def _exit_of(argv, capsys):
    from cdgl.workbench.cli import main
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("command", list(CLI_COMMANDS))
def test_cli_command_help(command, capsys):
    code, out, err = _exit_of([command, "--help"], capsys)
    assert code == 0 and not err
    assert out.startswith("usage: cdgl %s " % command)


@pytest.mark.parametrize("argv", [["nope"], ["homology", "--bogus"]])
def test_cli_errors_list_every_command(argv, capsys):
    code, out, err = _exit_of(argv, capsys)
    assert code == 2 and not out
    assert err.startswith("usage: cdgl [-h]")
    assert "{%s}" % ",".join(CLI_COMMANDS) in err


def test_cli_help_lists_every_command(capsys):
    code, out, err = _exit_of(["--help"], capsys)
    assert code == 0 and not err
    words = " ".join(out.split())
    for command, help_line in CLI_COMMANDS.items():
        assert "%s %s" % (command, help_line) in words


def test_long_flag_prefixes(capsys):
    from cdgl.workbench.cli import main, read_argv
    base = ["homology", "--model", "sphere(2)", "--range", "0..2"]
    assert read_argv(base + ["--trunc", "5"]) == read_argv(base + ["--truncate", "5"])
    assert read_argv(base + ["--for=canonical", "--no"]) == read_argv(
        base + ["--format", "canonical", "--no-stability"])
    # --mo names both --model and --morphism on pi-map
    code, out, err = _exit_of(["pi-map", "--mo", "id", "--range", "1..2"], capsys)
    assert code == 2 and not out and err.startswith("usage: cdgl")
    assert "ambiguous option: --mo could match --model, --morphism" in err
    assert main(base + ["--trunc", "2", "--form", "canonical"]) == 0
    assert "caps.truncation = 2" in capsys.readouterr().out


# argv values drawn per flag, mostly valid; none starts with "-", where the
# reader, taking the next argument whatever it is, parts from argparse
_ARGV_VALUES = {"int": ["3", "2", "12", " 4", "x", "", "2.5"],
                "range": ["0..4", "1..3", "0..0", "3", "a..b", "2.."],
                "format": ["table", "canonical", "canonical", "csv"],
                "str": ["x", "[x,y]", "id", "f", "sphere(2)", "", "a b", "=x"]}


def _argv_values(spec):
    if "choices" in spec:
        return _ARGV_VALUES["format"]
    if spec.get("type") is int:
        return _ARGV_VALUES["int"]
    return _ARGV_VALUES["range" if "type" in spec else "str"]


@st.composite
def cli_argvs(draw):
    """An argv built from the CLI's tables: a command (or none, or a wrong
    one), then flags in any order in every form argparse reads, the file
    anywhere, unknown flags, odd positionals, and at the end a flag with its
    value missing or a help flag."""
    from cdgl.workbench import cli
    command = draw(st.sampled_from(list(cli.COMMANDS) * 3 + [None, "nope"]))
    specs = cli._COMMON[1:] + cli.COMMANDS.get(command, ("", ()))[1]
    picks = [draw(st.sampled_from(specs)) for _ in range(draw(st.integers(0, 5)))]
    picks += [(f, s) for f, s in specs if s.get("required") and draw(st.integers(0, 9))]
    items = []
    for flag, spec in picks:
        if flag[1] == "-" and draw(st.booleans()):
            flag = flag[:draw(st.integers(3, len(flag)))]
        if "action" in spec:
            items.append([draw(st.sampled_from([flag, flag, flag, flag + "=1", flag + "="]))])
            continue
        value = draw(st.sampled_from(_argv_values(spec)))
        form = draw(st.sampled_from(["space", "eq"] + ["glued"] * (flag[1] != "-" and value != "")))
        items.append({"space": [flag, value], "eq": [flag + "=" + value],
                      "glued": [flag + value]}[form])
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["file"] * 4 + ["unknown", "odd"]))
        items.append([draw(st.sampled_from({
            "file": [os.path.join(DATA, "s1.cdgl"), os.path.join(DATA, "two_intervals.cdgl"),
                     "nosuchfile.cdgl"],
            "unknown": ["--bogus", "-z", "--bogus=1", "---x"],
            "odd": ["-", "-5.", "--", "a b", "=x"]}[kind]))])
    argv = [] if command is None else [command]
    argv += [arg for item in draw(st.permutations(items)) for arg in item]
    ends = [draw(st.sampled_from(specs))[0], "-h", "--help", "--he", "--help=1"]
    if draw(st.integers(0, 4)) == 0:
        argv.append(draw(st.sampled_from(ends)))
    return argv


def _read_with(read, argv):
    """(exit code, values, stdout, stderr) of read(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return 0, read(argv), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()


def _assert_reads_as_argparse(argv):
    # either both accept argv with the same task and --format, or both print
    # the help (exit 0), or both exit 2 with the usage on stderr only
    from oracles import argparse_argv
    from cdgl.workbench.cli import read_argv, task_from_args
    code, values, out, err = _read_with(read_argv, argv)
    ref_code, ref, ref_out, ref_err = _read_with(argparse_argv, argv)
    assert code == ref_code, (argv, err, ref_err)
    if code == 2:
        assert not out and err.startswith("usage: cdgl") and not ref_out
    elif values is None:
        assert code == 0 and out.startswith("usage: cdgl") and not err
    else:
        assert values["format"] == ref["format"]
        task, unread = task_from_args(values)
        ref_task, ref_unread = task_from_args(ref)
        assert unread == ref_unread
        assert {k: getattr(task, k) for k in Task.__slots__} == {
            k: getattr(ref_task, k) for k in Task.__slots__}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(cli_argvs())
def test_argv_reader_agrees_with_argparse(argv):
    _assert_reads_as_argparse(argv)


@pytest.mark.parametrize("argv", [
    [], ["--bogus"], ["--bogus", "--help"], ["--", "homology"], ["-5", "homology"],
    ["homology", "-5."], ["homology", "-"], ["homology", "--", "-5"],
    ["homology", "--", "--model"], ["homology", "--", "a", "--"],
    ["homology", "--model=S1", "--truncate=-3"], ["homology", "--no-stability="],
    ["bch", "-hz"], ["homology", "-hx"], ["gauge", "-a b", "-x", "c"], ["gauge", "-xy", "-a="],
    ["pi-map", "--", "--mo"], ["pi-map", "--=x"], ["--help=x"], ["witness", "--h"],
    ["witness", "--homotopy", "H", "--from", "f", "--to", "g", "--fr", "e"],
    ["homology", "--help", "--trunc", "x"], ["homology", "--trunc", "x", "--help"],
])
def test_argv_reader_agrees_with_argparse_on_odd_argvs(argv):
    _assert_reads_as_argparse(argv)


@pytest.mark.parametrize("argv, code", [
    # a positional that starts with "-" goes after "--"; argparse took a
    # negative number, or text with a space, for a positional
    (["homology", "-5"], 2), (["homology", "-a b"], 2),
    # -h fused with another short flag is refused; argparse read -hx as -h -x
    (["bch", "-hx", "a"], 2),
    # help answers when it is read; argparse first refused an ambiguous
    # prefix anywhere in argv
    (["pi-map", "--help", "--mo", "x"], 0),
])
def test_argv_reader_parts_from_argparse(argv, code):
    # argparse read each of these the other way: accepted (0) or refused (2)
    from oracles import argparse_argv
    from cdgl.workbench.cli import read_argv
    assert _read_with(read_argv, argv)[0] == code
    assert _read_with(argparse_argv, argv)[0] == 2 - code


NEGATIVE_VALUES = [
    ("homology", [("--model", "S1"), ("--range", "-1..3")], "homology.H_-1 = 1"),
    ("bch", [("--model", "wedge(1,1)"), ("-x", "-1*y"), ("-y", "x"), ("--truncate", "2")],
     "bch.result = x + -1 * y + 1/2 * [x,y]"),
    ("bch", [("--model", "wedge(1,1)"), ("-x", "-x"), ("-y", "y"), ("--truncate", "2")],
     "bch.result = -1 * x + y + -1/2 * [x,y]"),
    ("gauge", [("--model", "L1"), ("-x", "-x"), ("-a", "a"), ("--truncate", "3")],
     "gauge.result = 2 * a + -1 * b + [a,x]"),
]


def test_negative_range_lower_bound_both_forms(capsys):
    # a flag takes the next argument as its value, whatever it starts with:
    # "--flag value" and "--flag=value" give the same report
    from cdgl.workbench.cli import main
    for command, pairs, expect in NEGATIVE_VALUES:
        outs = []
        for argv in ([a for pair in pairs for a in pair], ["=".join(pair) for pair in pairs]):
            assert main([command, "--format", "canonical"] + argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert expect in outs[0]


def readme_cli_examples():
    import shlex
    root = os.path.dirname(os.path.dirname(__file__))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return root, [shlex.split(line, comments=True)
                  for line in block.splitlines() if line.startswith("cdgl ")]


def test_internal_error_is_not_a_diagnostic(monkeypatch, capsys):
    # a broken bracket ([a, b] = a) trips the lower-central-series check; the
    # run reports an internal error with exit code 3, not a user diagnostic
    import cdgl.dgl
    from cdgl.workbench.cli import main
    monkeypatch.setattr(cdgl.dgl.BracketTable, "product", lambda self, m, u, m2, v: u)
    code = main(["h0", "--model", "wedge(1,1)", "--truncate", "2",
                 "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 3
    assert "status = internal-error" in out
    assert "lower central series does not descend (internal error)" in out
    assert "diagnostic" not in out


def test_classifying_mode_check_is_an_internal_error(monkeypatch, capsys):
    # the CLI builds only the FREE and POINTED modes, so a mode outside
    # them is an engine fault: exit code 3, not a user diagnostic
    from cdgl.workbench import tasks
    from cdgl.workbench.cli import main
    real = tasks.classifying_invariants
    monkeypatch.setattr(tasks, "classifying_invariants",
                        lambda L, spec, mode, degrees: real(L, spec, "BOTH", degrees))
    code = main(["baut", "--model", "wedge(2,2)", "--range", "1..2", "--truncate", "2",
                 "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 3
    assert "status = internal-error" in out
    assert "mode must be FREE or POINTED (internal error)" in out
    assert "diagnostic" not in out


def test_homology_rank_bookkeeping_is_an_internal_error(monkeypatch, capsys):
    # a span whose add reports every vector as new makes the representatives
    # outnumber the dimension: an engine fault, exit code 3
    from cdgl import exactlin
    from cdgl.workbench.cli import main

    class Miscounting(exactlin.IncrementalSpan):
        def add(self, v):
            super().add(v)
            return True

    def miscounting_span(vecs):
        span = Miscounting()
        for v in vecs:
            span.add(v)
        return span

    monkeypatch.setattr(exactlin, "_span", miscounting_span)
    code = main(["homology", "--model", "L1", "--range", "-1..1",
                 "--format", "canonical"])
    out = capsys.readouterr().out
    assert code == 3
    assert "status = internal-error" in out
    assert "homology rank bookkeeping failed at degree -1 (internal error)" in out
    assert "diagnostic" not in out


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the engine's records are plain classes; dataclasses would pull in
    # inspect, dis and tokenize on every start of the CLI, and argparse
    # gettext and locale, which its own argv reader does without
    src = os.path.abspath(os.path.join(os.path.dirname(DATA), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["homology", "--model", "sphere(2)", "--range", "0..4", "--format", "canonical"]
    code = ("import sys; names = {'dataclasses', 'inspect', 'dis', 'tokenize', "
            "'argparse', 'gettext', 'locale'}; before = names & set(sys.modules); "
            "import cdgl.workbench.cli as cli; print(sorted(names & set(sys.modules) - before)); "
            "code = cli.main(%r); print(sorted(names & set(sys.modules) - before), code)" % argv)
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=path))
    lines = out.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[] 0"
    assert "homology.H_1 = 1" in out.stdout


def test_canonical_reports_do_not_depend_on_the_hash_seed():
    # set and dict orders of str keys move with PYTHONHASHSEED; no report
    # and no exit code may follow them.  Each seed runs the commands in
    # one fresh interpreter, and the two interpreters run side by side.
    src = os.path.abspath(os.path.join(os.path.dirname(DATA), os.pardir, "src"))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = [
        ["homology", "--model", "wedge(2,3)", "--range", "0..8", "--truncate", "5"],
        ["h0", "--model", "wedge(1,1)", "--truncate", "4"],
        ["bautstar", "--model", "wedge(2,2,3)", "--gspec", "identity",
         "--range", "1..4", "--truncate", "3"],
        ["baut", os.path.join(DATA, "wedge_spheres.cdgl"), "--gspec", "stabilizer:F",
         "--range", "1..4"],
        ["gamma", "--model", "wedge(2,2)", "--word-cap", "2", "--truncate", "2"],
        ["pi-map", os.path.join(DATA, "wedge_homotopy.cdgl"), "--morphism", "f",
         "--range", "1..3", "--truncate", "4"],
        ["gauge-equiv", "--model", "L1", "-a", "a", "-b", "b", "--truncate", "6"],
    ]
    code = ("import contextlib, io; from cdgl.workbench.cli import main\n"
            "for argv in %r:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv + ['--format', 'canonical'])\n"
            "    print('exit', code); print(out.getvalue())" % commands)
    runs = [subprocess.Popen([sys.executable, "-c", code], text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
            for seed in ("0", "1")]
    (out0, err0), (out1, err1) = (run.communicate(timeout=120) for run in runs)
    assert [run.returncode for run in runs] == [0, 0], err0 + err1
    assert out0.count("exit 0") == len(commands) and "status = ok" in out0
    assert out0 == out1


def test_readme_cli_examples_run(monkeypatch, capsys):
    from cdgl.workbench.cli import main
    root, examples = readme_cli_examples()
    assert len(examples) == 13
    monkeypatch.chdir(root)
    for argv in examples:
        assert main(argv[1:]) == 0, " ".join(argv)
        capsys.readouterr()


# -- the homology re-run off the length filtration --------------------------------

def _homology_against_full_rerun(monkeypatch, task):
    """Run a homology task, and hold the dimensions that its cap + 1 re-run
    read off the length filtration, and the flag, to the full re-run."""
    import cdgl.workbench.tasks as tasks
    from oracles import full_homology_again
    seen = []
    again = tasks._homology_again
    monkeypatch.setattr(tasks, "_homology_again",
                        lambda *args: seen.append(again(*args)) or seen[-1])
    rep = run_task(task)
    assert rep.status == "ok", rep.notes
    (got,) = seen
    cap = rep.caps["truncation"] + 1
    assert got == full_homology_again(task, cap)
    now = {int(k[2:]): v for k, v in rep.tables["homology"].items()}
    assert rep.stability == ("green" if got == now else "red")
    return rep


_RERUN_CASES = [
    # the benchmark's homology commands, full and quick
    ("wedge(2,2,3)", None, 5, (0, 10)), ("wedge(2,2,3)", None, 3, (0, 10)),
    ("wedge(2,2,3)", None, 4, (0, 10)), ("wedge(2,3)", None, 7, (0, 14)),
    ("wedge(2,3)", None, 8, (0, 14)), ("wedge(2,3)", None, 4, (0, 14)),
    # the CI smoke script's (its models with d != 0: see the test below)
    ("sphere(2)", None, None, (0, 4)), ("wedge(2,3)", None, 9, (0, 20)),
    ("wedge(2,3)", None, 11, (0, 20)),
    # models with d != 0, windows reaching degree -1, and the data files
    ("S1", None, 3, (-1, 2)), ("L1", None, 3, (-1, 1)), ("L1", None, 5, (-1, 0)),
    ("L0", None, 4, (-1, 1)), ("sphere(2)", None, 6, (0, 8)),
    ("wedge(1,1)", None, 4, (-1, 3)), ("wedge(1,1)", None, 5, (0, 0)),
    (None, "ad_boundary.cdgl", 3, (-1, 6)), (None, "ad_boundary.cdgl", 5, (0, 3)),
    (None, "ad_boundary.cdgl", None, (0, 0)), (None, "wedge_spheres.cdgl", None, (0, 8)),
    (None, "s1.cdgl", None, (-1, 1)), (None, "s1.cdgl", 2, (-2, 0)),
    (None, "sphere2.cdgl", None, (0, 6)), (None, "two_intervals.cdgl", 3, (-1, 1)),
]


@pytest.mark.parametrize("model, data, trunc, window", _RERUN_CASES)
def test_homology_rerun_matches_the_full_rerun(monkeypatch, model, data, trunc,
                                               window):
    _homology_against_full_rerun(monkeypatch, Task(
        "homology", model_ref=model, file_text=data and read(data), trunc=trunc,
        degree_range=window))


def test_homology_rerun_flags_of_the_ci_models(monkeypatch):
    # red where the layer of length N + 1 adds homology (d != 0 and minimal),
    # green on the circle and the interval
    flags = {}
    for model, data in (("S1", None), ("L1", None), (None, "ad_boundary.cdgl")):
        rep = _homology_against_full_rerun(monkeypatch, Task(
            "homology", model_ref=model, file_text=data and read(data), trunc=4,
            degree_range=(-1, 6)))
        flags[model or data] = rep.stability
        monkeypatch.undo()
    assert flags == {"S1": "green", "L1": "green", "ad_boundary.cdgl": "red"}


def test_homology_rerun_under_a_degree_cap(monkeypatch):
    # the layer holds only the words of length N + 1 under the degree cap
    text = ("model M {\n  truncate 3 degree 6\n  gen x : 1\n  gen y : 3\n"
            "  gen z : 2\n  d y = [x, x]\n}\n")
    for trunc, window in ((3, (0, 8)), (4, (2, 6)), (2, (0, 7))):
        _homology_against_full_rerun(monkeypatch, Task(
            "homology", file_text=text, trunc=trunc, degree_range=window))


def _random_model(rng, kind):
    """Model file text: generators a* with d = 0 and generators w* whose d
    is a random sum of brackets of the a*, so that d^2 = 0.  kind "zero"
    has no w*; "minimal" gives each w* brackets of length 2 and 3, and
    "linear" also an a* alone, so that d has a linear part."""
    degrees = [rng.randint(-1, 2) for _ in range(rng.randint(2, 3))]
    words = [("a%d" % i, d) for i, d in enumerate(degrees)]
    pairs = [("[%s, %s]" % (u, v), du + dv) for u, du in words for v, dv in words]
    words += pairs + [("[%s, %s]" % (u, v), du + dv) for u, du in words for v, dv in pairs]
    lines = ["  gen %s : %d" % w for w in words[:len(degrees)]]
    for i in range(0 if kind == "zero" else rng.randint(1, 2)):
        lead, degree = words[rng.randrange(len(degrees)) if kind == "linear"
                             else rng.randrange(len(degrees), len(words))]
        terms = [(rng.randint(1, 2), lead)] + [
            (rng.randint(-2, 2), t) for t, dt in words[len(degrees):]
            if dt == degree and rng.random() < 0.3]
        lines.append("  gen w%d : %d" % (i, degree + 1))
        lines.append("  d w%d = %s" % (i, " + ".join("%d * %s" % ct for ct in terms if ct[0])))
    return "model R {\n  truncate 2\n%s\n}\n" % "\n".join(lines)


@pytest.mark.parametrize("kind", ["zero", "minimal", "linear"])
def test_homology_rerun_matches_the_full_rerun_on_random_models(monkeypatch, kind):
    import random
    rng = random.Random(kind)
    flags = set()
    for _ in range(12):
        lo = rng.randint(-2, 2)
        rep = _homology_against_full_rerun(monkeypatch, Task(
            "homology", file_text=_random_model(rng, kind), trunc=rng.randint(2, 4),
            degree_range=(lo, lo + rng.randint(0, 4))))
        flags.add(rep.stability)
        monkeypatch.undo()
    assert flags == {"green", "red"}


def test_homology_rerun_keeps_the_ill_formed_note():
    # two_intervals.cdgl is ill-formed at cap 5: the full re-run fails on the
    # same error, and the note is the one the full re-run gave
    from cdgl.workbench.elaborate import ElaborationError
    from oracles import full_homology_again
    task = Task("homology", file_text=read("two_intervals.cdgl"), degree_range=(-1, 1))
    with pytest.raises(ElaborationError) as exc:
        full_homology_again(task, 5)
    rep = run_task(task)
    assert rep.stability == "red"
    assert rep.notes == ["stability re-run at cap 5 failed: %s" % exc.value]


def test_homology_rerun_on_d_zero_builds_no_layer(monkeypatch):
    # on a d = 0 model the layer's dimensions come from the formula: no
    # basis pick of length N + 1, and no elimination, in the re-run
    import cdgl.freelie as freelie
    import cdgl.workbench.tasks as tasks
    from cdgl.exactlin import IncrementalSpan
    lengths, adds, in_rerun = [], [], []
    picks, add, again = freelie._left_normed_basis, IncrementalSpan.add, tasks._homology_again

    def counted_picks(gens, degree, length):
        lengths.append(length)
        return picks(gens, degree, length)

    def counted_add(self, vec):
        adds.extend(in_rerun)
        return add(self, vec)

    def rerun(*args):
        in_rerun.append(None)
        try:
            return again(*args)
        finally:
            in_rerun.pop()

    monkeypatch.setattr(freelie, "_left_normed_basis", counted_picks)
    monkeypatch.setattr(IncrementalSpan, "add", counted_add)
    monkeypatch.setattr(tasks, "_homology_again", rerun)
    rep = run_task(Task("homology", model_ref="wedge(2,3)", trunc=6,
                        degree_range=(0, 14)))
    assert rep.status == "ok" and rep.stability == "red"
    assert lengths and max(lengths) == 6 and not adds


def test_a_miscounting_dimension_formula_is_an_internal_error(monkeypatch):
    # one more at every (degree, length): the re-run holds the formula to the
    # answer run's picks at length N and refuses, never flagging green
    import cdgl.workbench.tasks as tasks
    real = tasks.lie_dimension
    monkeypatch.setattr(tasks, "lie_dimension", lambda *args: real(*args) + 1)
    for model in ("wedge(2,3)", "S1"):
        rep = run_task(Task("homology", model_ref=model, trunc=3, degree_range=(0, 6)))
        assert rep.status == "internal-error" and rep.exit_code() == 3
        assert "lie_dimension miscounts degree 0, length 3" in rep.notes[0]
    plain = run_task(Task("homology", model_ref="wedge(2,3)", trunc=3,
                          degree_range=(0, 6), check_stability=False))
    assert plain.status == "ok"


def test_lie_basis_above_the_cap_is_an_internal_error(monkeypatch):
    # every caller asks for lengths up to the cap, so a longer one is a fault
    # of the engine (exit 3), never a diagnostic about the input (exit 1)
    import cdgl.dgl
    from cdgl.exactlin import InternalError
    from cdgl.freelie import Generator, lie_basis
    with pytest.raises(InternalError, match="length 4 exceeds truncation 3"):
        lie_basis((Generator("x", 2),), 8, 4, Truncation(3))
    real = cdgl.dgl.lie_basis
    monkeypatch.setattr(cdgl.dgl, "lie_basis",
                        lambda gens, n, ln, trunc: real(gens, n, ln + 1, trunc))
    rep = run_task(Task("homology", model_ref="wedge(2,3)", trunc=3, degree_range=(0, 6)))
    assert rep.status == "internal-error" and rep.exit_code() == 3
    assert "length 4 exceeds truncation 3" in rep.notes[0]


def test_lie_dimension_above_the_cap_is_an_internal_error(monkeypatch):
    import cdgl.workbench.tasks as tasks
    from cdgl.exactlin import InternalError
    from cdgl.freelie import Generator, lie_dimension
    with pytest.raises(InternalError, match="length 4 exceeds truncation 3"):
        lie_dimension((Generator("x", 2),), 8, 4, Truncation(3))
    real = tasks.lie_dimension
    monkeypatch.setattr(tasks, "lie_dimension",
                        lambda gens, n, ln, trunc: real(gens, n, ln + 1, trunc))
    rep = run_task(Task("homology", model_ref="wedge(2,3)", trunc=3, degree_range=(0, 6)))
    assert rep.status == "internal-error" and rep.exit_code() == 3
    assert "exceeds truncation" in rep.notes[0]


def test_homology_rerun_refuses_a_model_that_changes_below_the_cap(monkeypatch):
    # cap-N d must be cap-(N + 1) d cut at N, generator by generator
    import cdgl.workbench.tasks as tasks
    from cdgl.freelie import LieElement
    load = tasks._load

    def changed(task, trunc_override=None, **kwargs):
        ws, L = load(task, trunc_override, **kwargs)
        if trunc_override is not None:
            x = L.gens[0]
            L.d_on_gens[x] = LieElement({(L.gens[1],): 1}, L.trunc)
        return ws, L

    monkeypatch.setattr(tasks, "_load", changed)
    rep = run_task(Task("homology", model_ref="S1", trunc=3, degree_range=(-1, 1)))
    assert rep.status == "internal-error"
    assert rep.notes == ["the cap-4 model cut at cap 3 is not the cap-3 model"]


# -- the pi-map re-run off the length filtration ----------------------------------

def _pi_against_full_rerun(monkeypatch, task):
    """Run a pi-map task, and hold the (pointed, free) dimensions that its
    cap + 1 re-run read off the length filtration, and the flag, to the full
    re-run."""
    import cdgl.workbench.tasks as tasks
    from oracles import full_pi_again
    seen = []
    again = tasks._pi_again
    monkeypatch.setattr(tasks, "_pi_again",
                        lambda *args: seen.append(again(*args)) or seen[-1])
    rep = run_task(task)
    assert rep.status == "ok", rep.notes
    (got,) = seen
    assert got == full_pi_again(task, rep.caps["truncation"] + 1)
    now = tuple({int(k[3:]): v for k, v in rep.tables[t].items()}
                for t in ("pi_pointed", "pi_free"))
    assert rep.stability == ("green" if got == now else "red")
    return rep


_CAPPED = ("model M {\n  truncate 3 degree 6\n  gen x : 1\n  gen y : 3\n"
           "  gen z : 2\n%s}\n")

_PI_RERUN_CASES = [
    # the benchmark's pi-map commands, full and quick
    ("wedge(2,2)", None, None, 6, (1, 8)), ("wedge(2,3)", None, None, 7, (1, 8)),
    ("wedge(2,2)", None, None, 4, (1, 6)), ("wedge(2,3)", None, None, 4, (1, 6)),
    # the CI smoke script's, the gap 3..4 among them
    ("S1", None, None, 4, (1, 3)), ("L1", None, None, 4, (1, 3)),
    (None, "wedge_homotopy.cdgl", "f", None, (1, 2)),
    (None, "wedge_homotopy.cdgl", "f", 4, (1, 3)),
    (None, "wedge_spheres.cdgl", "shear", 4, (1, 4)),
    ("wedge(2,3)", None, None, 3, (3, 4)), ("wedge(2,2)", None, None, 4, (1, 4)),
    (None, "ad_boundary.cdgl", None, 3, (1, 3)),
    # the zero morphism, another file morphism, and d = 0 under a degree cap
    ("wedge(2,3)", None, "zero", 3, (3, 4)), ("S1", None, "zero", 4, (1, 3)),
    (None, "wedge_homotopy.cdgl", "g", 4, (1, 3)), ("L0", None, None, 4, (1, 3)),
    (None, _CAPPED % "", None, 3, (1, 6)), (None, _CAPPED % "  d y = [x, x]\n", None, 4, (1, 2)),
]


@pytest.mark.parametrize("model, data, morphism, trunc, window", _PI_RERUN_CASES)
def test_pi_rerun_matches_the_full_rerun(monkeypatch, model, data, morphism, trunc,
                                         window):
    text = data if data is None or "\n" in data else read(data)
    _pi_against_full_rerun(monkeypatch, Task(
        "pi-map", model_ref=model, file_text=text, trunc=trunc, degree_range=window,
        names={"morphism": morphism} if morphism else {}))


def test_pi_rerun_flags_of_the_ci_models(monkeypatch):
    # green on the circle, the interval and the shear; red where the layer
    # adds homology, as on ad_boundary.cdgl
    flags = {}
    for model, data, morphism, trunc, window in _PI_RERUN_CASES[4:12]:
        rep = _pi_against_full_rerun(monkeypatch, Task(
            "pi-map", model_ref=model, file_text=data and read(data), trunc=trunc,
            degree_range=window, names={"morphism": morphism} if morphism else {}))
        flags[model or morphism or data] = rep.stability
        monkeypatch.undo()
    assert flags == {"S1": "green", "L1": "green", "f": "red", "shear": "green",
                     "wedge(2,3)": "red", "wedge(2,2)": "red", "ad_boundary.cdgl": "red"}


@pytest.mark.parametrize("kind", ["zero", "minimal", "linear"])
def test_pi_rerun_matches_the_full_rerun_on_random_models(monkeypatch, kind):
    import random
    rng = random.Random(kind)
    flags = set()
    for _ in range(12):
        lo = rng.randint(1, 3)
        rep = _pi_against_full_rerun(monkeypatch, Task(
            "pi-map", file_text=_random_model(rng, kind), trunc=rng.randint(2, 4),
            degree_range=(lo, lo + rng.randint(0, 3))))
        flags.add(rep.stability)
        monkeypatch.undo()
    assert flags == {"green", "red"}


def test_pi_rerun_holds_d_squared_under_a_degree_cap():
    # under a degree cap d is no derivation of the capped algebra, and the
    # cap-(N + 1) complex of derivations can fail d^2 = 0 where the cap-N one
    # holds it: the re-run gives the full re-run's diagnostic
    from cdgl.exactlin import IllFormedComplexError
    from oracles import full_pi_again
    text = _CAPPED % "  d y = [x, x]\n"
    task = Task("pi-map", file_text=text, trunc=3, degree_range=(1, 6))
    with pytest.raises(IllFormedComplexError) as exc:
        full_pi_again(task, 4)
    rep = run_task(task)
    assert rep.status == "diagnostics" and [d.message for d in rep.diagnostics] == [
        str(exc.value)] == ["dd != 0 from degree 5"]
    plain = run_task(Task("pi-map", file_text=text, trunc=3, degree_range=(1, 6),
                          check_stability=False))
    assert plain.status == "ok"


def test_pi_rerun_keeps_the_ill_formed_note():
    from cdgl.workbench.elaborate import ElaborationError
    from oracles import full_pi_again
    task = Task("pi-map", file_text=read("two_intervals.cdgl"), degree_range=(1, 2))
    with pytest.raises(ElaborationError) as exc:
        full_pi_again(task, 5)
    rep = run_task(task)
    assert rep.stability == "red"
    assert rep.notes[-1] == "stability re-run at cap 5 failed: %s" % exc.value
    assert str(exc.value).startswith("model W is ill-formed: d^2 != 0 on generator x")


def test_pi_rerun_keeps_the_resource_limit(monkeypatch):
    # the layer's (degree, N + 1) components are held to the limit as the
    # full re-run's bases were: wedge(2,2) has 6 Lie words of degree 5 at
    # length 5 and none over 3 below
    monkeypatch.setenv("CDGL_RESOURCE_LIMIT", "3")
    for stability, status in ((True, "resource-limit"), (False, "ok")):
        rep = run_task(Task("pi-map", model_ref="wedge(2,2)", trunc=4,
                            degree_range=(1, 4), check_stability=stability))
        assert rep.status == status and rep.exit_code() == (2 if stability else 0)


def test_pi_rerun_on_d_zero_builds_no_layer(monkeypatch):
    # on a d = 0 model the re-run picks no basis element of length N + 1 and
    # builds no derivation complex, unit column or twisted product; it takes
    # no homology, so a certified run takes the 16 homology reports of the
    # answer run alone, as many as --no-stability took with the full re-run
    import cdgl.derivations as derivations
    import cdgl.exactlin as exactlin
    import cdgl.freelie as freelie
    import cdgl.workbench.tasks as tasks
    lengths, built, in_rerun, homologies = [], [], [], []
    again = tasks._pi_again

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if in_rerun:
                built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def rerun(*args):
        in_rerun.append(None)
        try:
            return again(*args)
        finally:
            in_rerun.pop()

    picks, homology_at = freelie._left_normed_basis, exactlin.homology_at
    monkeypatch.setattr(freelie, "_left_normed_basis", lambda gens, degree, length: (
        lengths.extend([length] if in_rerun else []) or picks(gens, degree, length)))
    monkeypatch.setattr(exactlin, "homology_at",
                        lambda *args: homologies.append(None) or homology_at(*args))
    for name in ("DerComplex", "unit_columns", "twisted_product"):
        monkeypatch.setattr(derivations, name, counted(name, getattr(derivations, name)))
    monkeypatch.setattr(tasks, "_pi_again", rerun)
    counts = []
    for stability in (True, False):
        homologies.clear()
        rep = run_task(Task("pi-map", model_ref="wedge(2,3)", trunc=4,
                            degree_range=(1, 4), check_stability=stability))
        assert rep.status == "ok"
        counts.append(len(homologies))
    assert rep.stability is None and counts == [16, 16]
    assert max(lengths, default=0) <= 4 and not built


def test_a_miscounting_dimension_formula_fails_the_pi_rerun(monkeypatch):
    import cdgl.workbench.tasks as tasks
    real = tasks.lie_dimension
    monkeypatch.setattr(tasks, "lie_dimension", lambda *args: real(*args) + 1)
    for model in ("wedge(2,3)", "S1"):
        rep = run_task(Task("pi-map", model_ref=model, trunc=3, degree_range=(1, 4)))
        assert rep.status == "internal-error" and rep.exit_code() == 3
        assert "lie_dimension miscounts degree" in rep.notes[0]
        plain = run_task(Task("pi-map", model_ref=model, trunc=3, degree_range=(1, 4),
                              check_stability=False))
        assert plain.status == "ok"


def test_pi_rerun_refuses_a_morphism_that_changes_below_the_cap(monkeypatch):
    # the cap-(N + 1) images cut at N must be the cap-N images
    import cdgl.workbench.tasks as tasks
    from cdgl.freelie import LieElement
    morphism = tasks._morphism

    def changed(task, trunc_override=None):
        phi = morphism(task, trunc_override)
        if trunc_override is not None:
            x, y = phi.source.gens
            phi.images[x] = LieElement({(y,): 1}, phi.target.trunc)
        return phi

    monkeypatch.setattr(tasks, "_morphism", changed)
    rep = run_task(Task("pi-map", model_ref="wedge(2,2)", trunc=4, degree_range=(1, 4)))
    assert rep.status == "internal-error" and rep.exit_code() == 3
    assert rep.notes == ["the cap-5 morphism cut at cap 4 is not the cap-4 morphism"]
