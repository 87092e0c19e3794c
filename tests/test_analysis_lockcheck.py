"""Tests for the static lock-discipline analyzer (repro.analysis.lockcheck)."""

import json
import textwrap

from repro.__main__ import main as cli_main
from repro.analysis import (
    LOCK_RULES,
    check_lock_discipline,
    check_lock_paths,
    check_lock_source,
)


def rules_of(source):
    return [d.rule for d in check_lock_source(textwrap.dedent(source))]


CLEAN_CLASS = """
    import threading

    class Clean:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def value(self):
            with self._lock:
                return self.count
"""


class TestLock001GuardedMutation:
    def test_unlocked_write_of_guarded_attr_flagged(self):
        src = """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    with self._lock:
                        self.count += 1

                def reset(self):
                    self.count = 0
        """
        assert "LOCK001" in rules_of(src)

    def test_consistently_locked_class_clean(self):
        assert rules_of(CLEAN_CLASS) == []

    def test_init_writes_exempt(self):
        # __init__ runs before the object is shared; its bare writes
        # must not count as violations.
        rules = rules_of(CLEAN_CLASS)
        assert "LOCK001" not in rules


LOCK_ORDER_CYCLE = """
    import threading

    class Left:
        def __init__(self, right):
            self._lock = threading.Lock()
            self.right = right

        def poke(self):
            with self._lock:
                self.right.touch()

        def touch(self):
            with self._lock:
                pass

    class Right:
        def __init__(self, left):
            self._lock = threading.Lock()
            self.left = left

        def poke(self):
            with self._lock:
                self.left.touch()

        def touch(self):
            with self._lock:
                pass
"""


class TestLock003LockOrderCycle:
    def test_two_class_cycle_flagged(self):
        # A.poke holds A._lock and enters B._lock; B.poke holds
        # B._lock and enters A._lock — opposite orders close a cycle.
        src = """
            import threading

            class A:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.b = B()

                def poke(self):
                    with self._lock:
                        self.b.touch()

                def touch(self):
                    with self._lock:
                        pass

            class B:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.a = A()

                def touch(self):
                    with self._lock:
                        pass

                def poke(self):
                    with self._lock:
                        self.a.touch()
        """
        assert "LOCK003" in rules_of(src)

    def test_nested_own_locks_one_order_clean(self):
        src = """
            import threading

            class TwoLocks:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def both(self):
                    with self._a:
                        with self._b:
                            pass

                def also_both(self):
                    with self._a:
                        with self._b:
                            pass
        """
        assert "LOCK003" not in rules_of(src)

    def test_nested_own_locks_opposite_orders_flagged(self):
        src = """
            import threading

            class Inverted:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        """
        assert "LOCK003" in rules_of(src)


class TestLock004Reentry:
    def test_lexically_nested_reacquire_flagged(self):
        src = """
            import threading

            class Reenter:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        with self._lock:
                            pass
        """
        assert rules_of(src) == ["LOCK004"]

    def test_self_call_reacquire_flagged(self):
        src = """
            import threading

            class Reenter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.x = 0

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        self.x += 1
        """
        assert "LOCK004" in rules_of(src)

class TestLock008LockRebinding:
    def test_rebind_outside_init_flagged(self):
        src = """
            import threading

            class Rebinder:
                def __init__(self):
                    self._lock = threading.Lock()

                def reset(self):
                    self._lock = threading.Lock()
        """
        assert "LOCK008" in rules_of(src)

    def test_init_binding_clean(self):
        assert "LOCK008" not in rules_of(CLEAN_CLASS)


class TestRealTree:
    def test_shipped_package_has_no_errors(self):
        rep = check_lock_discipline()
        assert rep.errors == []

    def test_shipped_package_has_no_warnings(self):
        rep = check_lock_discipline()
        assert rep.warnings == []


class TestCrossFileGraph:
    def test_cycle_split_across_files_detected(self, tmp_path):
        (tmp_path / "left.py").write_text(textwrap.dedent("""
            import threading

            class Left:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.right = Right()

                def poke(self):
                    with self._lock:
                        self.right.touch()
        """))
        (tmp_path / "right.py").write_text(textwrap.dedent("""
            import threading

            class Right:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.left = Left()

                def touch(self):
                    with self._lock:
                        pass

                def poke(self):
                    with self._lock:
                        self.left.poke()
        """))
        rep = check_lock_paths([tmp_path])
        assert "LOCK003" in [d.rule for d in rep.errors]


class TestCli:
    def _cycle_file(self, tmp_path):
        path = tmp_path / "cycle.py"
        path.write_text(textwrap.dedent("""
            import threading

            class Inverted:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        with self._b:
                            pass

                def backward(self):
                    with self._b:
                        with self._a:
                            pass
        """))
        return path

    def test_cycle_reported_human(self, tmp_path, capsys):
        path = self._cycle_file(tmp_path)
        code = cli_main(["analyze", "--concurrency", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "LOCK003" in out
        assert "lock-order cycle" in out

    def test_cycle_reported_json(self, tmp_path, capsys):
        path = self._cycle_file(tmp_path)
        code = cli_main(["analyze", "--concurrency", str(path), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert "LOCK003" in {f["rule"] for f in payload["findings"]}

    def test_default_target_clean(self, capsys):
        code = cli_main(["analyze", "--concurrency"])
        assert code == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_rules_catalog_lists_lock_rules(self, capsys):
        code = cli_main(["analyze", "--rules"])
        out = capsys.readouterr().out
        assert code == 0
        printed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert {r for r in printed if r.startswith("LOCK")} == set(LOCK_RULES)
        assert not any(r.startswith("RACE") for r in printed)
