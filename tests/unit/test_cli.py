"""Unit tests for the experiment CLI dispatcher."""

import pytest

from repro.experiments.__main__ import REGISTRY, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_run_table01(self, capsys):
        assert main(["table01"]) == 0
        out = capsys.readouterr().out
        assert "g_hba" in out

    def test_unknown_experiment(self, capsys):
        assert main(["frobnicate"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_record_then_check_and_a_one_byte_edit_fails(self, tmp_path, capsys):
        # Recording is the one-name command's stdout, redirected to the file.
        for name in ("table01", "fig07"):
            assert main([name]) == 0
            (tmp_path / f"{name}.txt").write_bytes(capsys.readouterr().out.encode())
        assert main(["--check", str(tmp_path), "table01", "fig07"]) == 0
        recorded = tmp_path / "fig07.txt"
        text = recorded.read_bytes()
        recorded.write_bytes(text[:40] + b"#" + text[41:])
        (tmp_path / "table01.txt").unlink()
        capsys.readouterr()
        assert main(["--check", str(tmp_path), "table01", "fig07"]) == 1
        out = capsys.readouterr().out
        assert f"FAILED: {tmp_path / 'table01.txt'}: no recorded output" in out
        assert f"FAILED: {recorded}: first difference at line 1" in out

    def test_registry_modules_importable(self):
        import importlib

        for name in REGISTRY:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert hasattr(module, "run")
            assert hasattr(module, "main")
