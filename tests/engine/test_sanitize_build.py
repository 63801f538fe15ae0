"""Sanitizer build mode: ``REPRO_CC_SANITIZE`` must reshape both the
compile command and the kernel cache key, so a sanitized and an
optimized kernel never collide in the cache.  The base flags key the
cache the same way, and the kernel compiles without a warning."""

from __future__ import annotations

import subprocess

import pytest

from repro.engine import build


class TestSanitizeFlags:
    def test_unset_means_no_flags(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        assert build.sanitize_flags() == ()

    def test_parses_comma_list(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "address,undefined")
        flags = build.sanitize_flags()
        assert "-fsanitize=address" in flags
        assert "-fsanitize=undefined" in flags
        assert "-g" in flags
        assert "-fno-sanitize-recover=all" in flags

    def test_whitespace_and_empty_parts_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", " undefined , ")
        assert build.sanitize_flags()[0] == "-fsanitize=undefined"
        monkeypatch.setenv("REPRO_CC_SANITIZE", "   ")
        assert build.sanitize_flags() == ()


class TestCacheKey:
    def test_sanitize_mode_changes_kernel_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        plain = build.kernel_path()
        monkeypatch.setenv("REPRO_CC_SANITIZE", "address,undefined")
        asan_ubsan = build.kernel_path()
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        ubsan = build.kernel_path()
        assert len({plain, asan_ubsan, ubsan}) == 3

    def test_key_is_stable_for_a_given_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC_SANITIZE", "undefined")
        assert build.kernel_path() == build.kernel_path()

    def test_base_flags_change_kernel_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_CC_SANITIZE", raising=False)
        default = build.kernel_path()
        monkeypatch.setattr(build, "BASE_FLAGS", ("-O3", "-fPIC", "-shared"))
        assert build.kernel_path() != default

    def test_fp_contraction_is_off(self):
        # a fused multiply-add would break the trace fill's bit-identity
        assert "-ffp-contract=off" in build.compile_flags()


def test_kernel_compiles_without_warnings(tmp_path):
    try:
        compiler = build._find_compiler()
    except RuntimeError:
        pytest.skip("no C compiler")
    # ``$CC=false`` (the pure-python CI job) is found but compiles nothing
    trivial = tmp_path / "trivial.c"
    trivial.write_text("int x;\n")
    probe = subprocess.run(
        [compiler, "-c", "-o", str(tmp_path / "trivial.o"), str(trivial)],
        capture_output=True,
    )
    if probe.returncode != 0:
        pytest.skip(f"{compiler} cannot compile a trivial file")
    cmd = [
        compiler, *build.compile_flags(), "-Wall", "-Wextra", "-Werror",
        "-o", str(tmp_path / "kernel.so"), str(build.KERNEL_SOURCE),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
