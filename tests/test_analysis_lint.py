"""Tests for the numerical-hygiene linter (repro.analysis.lint)."""

import json

from repro.__main__ import main as cli_main
from repro.analysis import lint_paths, lint_source


def rules_of(source):
    return [d.rule for d in lint_source(source)]


class TestLint000ParseError:
    def test_unparsable_source_reported(self):
        rep = lint_source("def (:\n", filename="bad.py")
        assert [d.rule for d in rep.errors] == ["LINT000"]
        assert rep.errors[0].file == "bad.py"

    def test_valid_source_clean(self):
        assert rules_of("x = 1\n") == []


class TestLint001UnseededRng:
    def test_unseeded_default_rng_flagged(self):
        assert rules_of("g = np.random.default_rng()\n") == ["LINT001"]

    def test_unseeded_random_random_flagged(self):
        assert rules_of("g = random.Random()\n") == ["LINT001"]

    def test_seeded_rng_clean(self):
        assert rules_of("g = np.random.default_rng(42)\n") == []
        assert rules_of("g = random.Random(7)\n") == []


class TestLint002FloatEquality:
    def test_inexact_literal_equality_flagged(self):
        rep = lint_source("ok = x == 0.1\n")
        assert [d.rule for d in rep.warnings] == ["LINT002"]

    def test_inexact_literal_inequality_flagged(self):
        assert rules_of("ok = 3.3 != y\n") == ["LINT002"]

    def test_exact_literal_clean(self):
        assert rules_of("ok = x == 0.5\n") == []
        assert rules_of("ok = x == 1.0\n") == []

    def test_ordering_comparisons_clean(self):
        assert rules_of("ok = x < 0.1\n") == []


class TestLint003SilentHandler:
    def test_bare_handler_pass_is_error(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        rep = lint_source(src)
        assert [d.rule for d in rep.errors] == ["LINT003"]

    def test_broad_handler_pass_is_error(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert [d.rule for d in lint_source(src).errors] == ["LINT003"]

    def test_narrow_handler_pass_is_warning(self):
        src = "try:\n    f()\nexcept ValueError:\n    pass\n"
        rep = lint_source(src)
        assert rep.ok
        assert [d.rule for d in rep.warnings] == ["LINT003"]

    def test_handler_with_body_clean(self):
        src = "try:\n    f()\nexcept ValueError:\n    x = 1\n"
        assert rules_of(src) == []


class TestLint004MutableDefault:
    def test_list_literal_default_flagged(self):
        assert rules_of("def f(a=[]):\n    pass\n") == ["LINT004"]

    def test_constructor_default_flagged(self):
        assert rules_of("def f(a=dict()):\n    pass\n") == ["LINT004"]

    def test_kwonly_default_flagged(self):
        assert rules_of("def f(*, a={}):\n    pass\n") == ["LINT004"]

    def test_none_default_clean(self):
        assert rules_of("def f(a=None, b=()):\n    pass\n") == []


class TestLint005NarrowingAstype:
    def test_astype_float16_flagged(self):
        rep = lint_source("b = a.astype(np.float16)\n")
        assert [d.rule for d in rep.warnings] == ["LINT005"]

    def test_astype_string_dtype_flagged(self):
        assert rules_of("b = a.astype('float32')\n") == ["LINT005"]

    def test_astype_float64_clean(self):
        assert rules_of("b = a.astype(np.float64)\n") == []

    def test_explicit_casting_kwarg_clean(self):
        src = "b = a.astype(np.float16, casting='same_kind')\n"
        assert rules_of(src) == []


class TestLint006CheckFinite:
    def test_unguarded_solve_triangular_flagged(self):
        rep = lint_source("x = sla.solve_triangular(a, b)\n")
        assert [d.rule for d in rep.warnings] == ["LINT006"]

    def test_guarded_call_clean(self):
        src = "x = sla.solve_triangular(a, b, check_finite=False)\n"
        assert rules_of(src) == []

    def test_numpy_solve_exempt(self):
        # np.linalg.solve has no check_finite parameter.
        assert rules_of("x = np.linalg.solve(a, b)\n") == []

    def test_scipy_generic_solve_flagged(self):
        assert rules_of("x = sla.solve(a, b)\n") == ["LINT006"]
        assert rules_of("x = scipy.linalg.solve(a, b)\n") == ["LINT006"]

    def test_solver_object_solve_exempt(self):
        # Solver *objects* (PanelSolver, engines) expose .solve()
        # without a check_finite parameter.
        assert rules_of("x = solver.solve(b)\n") == []
        assert rules_of("x = self.solver.solve(b)\n") == []


class TestLint007EvalExec:
    def test_eval_flagged(self):
        assert rules_of("y = eval('x')\n") == ["LINT007"]

    def test_exec_flagged(self):
        assert rules_of("exec('x = 1')\n") == ["LINT007"]

    def test_literal_eval_clean(self):
        assert rules_of("y = ast.literal_eval(s)\n") == []


class TestLint008IdentityLiteral:
    def test_is_against_int_literal_flagged(self):
        rep = lint_source("ok = x is 5\n")
        assert [d.rule for d in rep.errors] == ["LINT008"]

    def test_is_not_against_str_literal_flagged(self):
        assert rules_of("ok = x is not 'a'\n") == ["LINT008"]

    def test_singleton_identity_clean(self):
        assert rules_of("ok = x is None\n") == []
        assert rules_of("ok = x is True\n") == []
        assert rules_of("ok = x is ...\n") == []


class TestSuppression:
    def test_bare_ignore_suppresses_all_rules(self):
        src = "g = np.random.default_rng()  # lint: ignore\n"
        assert rules_of(src) == []

    def test_listed_ignore_suppresses_named_rule(self):
        src = "b = a.astype(np.float16)  # lint: ignore[LINT005]\n"
        assert rules_of(src) == []

    def test_listed_ignore_keeps_other_rules(self):
        src = "g = np.random.default_rng()  # lint: ignore[LINT005]\n"
        assert rules_of(src) == ["LINT001"]


class TestLint010KernelHomes:
    BODY = """
from ..tile import kernels as K
from ..tile.batch import stacked_gemm

def run(task, tiles):
    return K.gemm(tiles[0], tiles[1], tiles[2])

def update_column(parts, b, c, precision):
    return stacked_gemm(parts, b, c, precision)
"""

    def test_kernel_call_in_an_executor_flagged(self):
        rep = lint_source(self.BODY, "src/repro/runtime/parallel.py")
        assert [d.rule for d in rep.errors] == ["LINT010", "LINT010"]

    def test_kernel_homes_clean(self):
        for home in ("src/repro/tile/cholesky.py", "src/repro/tile/batch.py",
                     "src/repro/runtime/taskcore.py"):
            assert lint_source(self.BODY, home).ok, home

    def test_outside_the_package_clean(self):
        assert lint_source(self.BODY, "tests/test_tile_kernels.py").ok
        assert lint_source(self.BODY, "benchmarks/harness/layers.py").ok

    def test_other_gemm_receivers_clean(self):
        src = "y = model.gemm(a, b)\nz = perf.batched(a)\n"
        assert lint_source(src, "src/repro/perfmodel/gemm.py").ok


class TestLintPaths:
    def test_walks_directories_and_skips_hidden(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("y = eval('x')\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "skipped.py").write_text("y = eval('x')\n")
        rep = lint_paths([tmp_path])
        assert [d.rule for d in rep.errors] == ["LINT007"]
        assert "mod.py" in rep.errors[0].file

    def test_repository_tree_is_clean(self):
        rep = lint_paths(["src", "benchmarks", "tests", "examples"])
        assert rep.ok, rep.render_text()


class TestAnalyzeCli:
    def test_lint_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("y = eval('x')\n")
        assert cli_main(["analyze", "--lint", str(bad)]) == 1
        good = tmp_path / "good.py"
        good.write_text("y = 1\n")
        assert cli_main(["analyze", "--lint", str(good)]) == 0

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("y = eval('x')\n")
        cli_main(["analyze", "--lint", str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        assert payload["findings"][0]["rule"] == "LINT007"

    def test_rules_catalog(self, capsys):
        assert cli_main(["analyze", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("PLAN001", "DAG003", "LINT007"):
            assert rule in out

    def test_no_target_is_usage_error(self, capsys):
        assert cli_main(["analyze"]) == 2
