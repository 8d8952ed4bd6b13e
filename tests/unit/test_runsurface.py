"""The run-surface recorder on small snippets (``tests/_runsurface.py``).

Each test plants a package under ``tmp_path/src``, runs a one-line
program on it through :func:`record`, and checks which definitions the
hook saw.  The comparison is driven with made-up sets, without running
CI's commands.
"""

from __future__ import annotations

import textwrap

from tests._runsurface import compare, definitions, record


def _plant(tmp_path, files):
    src = tmp_path / "src" / "pkg"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text("")
    for name, body in files.items():
        (src / name).write_text(textwrap.dedent(body))
    return src


def _never_run(tmp_path, src, program):
    ran = record([f'PYTHONPATH=src python -c "{program}"'], cwd=tmp_path, src=src)
    unlisted, stale = compare(ran, definitions(src), ())
    assert not stale
    return unlisted


def test_equal_functions_in_two_modules_are_both_recorded(tmp_path):
    body = "def main():\n    return print('x')\n"
    src = _plant(tmp_path, {"a.py": body, "b.py": body})
    program = "import pkg.a, pkg.b; pkg.a.main(); pkg.b.main()"
    assert _never_run(tmp_path, src, program) == []
    assert _never_run(tmp_path, src, "import pkg.a, pkg.b; pkg.b.main()") == [
        "pkg.a.main"
    ]


def test_a_decorated_function_and_a_setter_map_to_their_own_definitions(tmp_path):
    src = _plant(tmp_path, {"m.py": """\
        import functools


        def deco(function):
            @functools.wraps(function)
            def inner():
                return function()
            return inner


        @deco
        def decorated():
            return 1


        class C:
            @property
            def x(self):
                return 1

            @x.setter
            def x(self, value):
                self.value = value
        """})
    program = "import pkg.m; pkg.m.decorated(); pkg.m.C().x = 2"
    assert _never_run(tmp_path, src, program) == ["pkg.m.C.x"]


def test_a_call_on_a_worker_thread_is_recorded(tmp_path):
    src = _plant(tmp_path, {"m.py": """\
        import threading


        def work():
            return 1


        def spawn():
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        """})
    assert _never_run(tmp_path, src, "import pkg.m; pkg.m.spawn()") == []


def test_os_exit_and_sigterm_still_dump(tmp_path):
    src = _plant(tmp_path, {"m.py": """\
        def first():
            return 1


        def second():
            return 2
        """})
    assert _never_run(
        tmp_path, src, "import os, pkg.m; pkg.m.first(); os._exit(3)"
    ) == ["pkg.m.second"]
    assert _never_run(
        tmp_path, src,
        "import os, signal, pkg.m; pkg.m.second(); os.kill(os.getpid(), signal.SIGTERM)",
    ) == ["pkg.m.first"]


def test_stubs_and_dunders_are_not_definitions(tmp_path):
    src = _plant(tmp_path, {"m.py": '''\
        class P:
            def stub(self):
                """Only a docstring."""

            def ellipsis(self):
                ...

            def __repr__(self):
                return "P"

            def body(self):
                return 1
        '''})
    assert sorted(definitions(src).values()) == ["pkg.m.P.body"]


def test_the_comparison_reports_unlisted_and_stale_entries():
    defined = {
        ("m.py", 1, "ran"): "m.ran",
        ("m.py", 5, "listed"): "m.listed",
        ("m.py", 9, "forgotten"): "m.forgotten",
        ("m.py", 13, "ran_but_listed"): "m.ran_but_listed",
    }
    ran = {("m.py", 1, "ran"), ("m.py", 13, "ran_but_listed")}
    listed = ["m.listed", "m.ran_but_listed", "m.gone"]
    assert compare(ran, defined, listed) == (
        ["m.forgotten"],
        ["m.gone", "m.ran_but_listed"],
    )
