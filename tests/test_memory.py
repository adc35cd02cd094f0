"""The allocator thresholds that importing regroot sets on glibc."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import Mock, call, patch

import pytest

import regroot


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


glibc_only = pytest.mark.skipif(not _on_glibc(), reason="the thresholds are set on glibc only")

# glibc's mallopt parameters, then the values regroot gives them.
MMAP = call(-3, 32 << 20)
TRIM = call(-1, 1 << 30)


def _fresh(code: str) -> str:
    # Runs code in a fresh interpreter, so no other test's allocations count.
    env = {**os.environ, "PYTHONPATH": str(Path(regroot.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


@glibc_only
def test_both_thresholds_set_on_glibc_and_a_second_call_is_harmless():
    real = ctypes.CDLL(None).mallopt
    real.argtypes, real.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt = Mock(side_effect=real)
    with patch.object(ctypes, "CDLL", return_value=SimpleNamespace(mallopt=mallopt)):
        assert regroot._keep_freed_memory() is True
        assert regroot._keep_freed_memory() is True
    assert mallopt.call_args_list == [MMAP, TRIM] * 2


# A 16 MiB block lies below the program break if it came from the heap, and
# above it if glibc mapped it alone; freeing it trims the heap or not.
_BLOCK = """
import ctypes{imports}
libc = ctypes.CDLL(None)
libc.sbrk.argtypes, libc.sbrk.restype = (ctypes.c_ssize_t,), ctypes.c_void_p
libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p
libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None
block = libc.malloc(16 << 20)
top = libc.sbrk(0)
libc.free(block)
print(block + (16 << 20) <= top, libc.sbrk(0) == top)
"""


@glibc_only
def test_after_import_a_large_block_comes_from_the_heap_and_stays():
    assert _fresh(_BLOCK.format(imports="")).split()[0] == "False"
    assert _fresh(_BLOCK.format(imports="\nimport regroot")).split() == ["True", "True"]


@pytest.mark.parametrize("case", ["confstr raises", "confstr None", "no libc", "no mallopt", "mallopt fails"])
def test_nothing_changes_off_glibc_or_when_mallopt_fails(case):
    confstr = Mock(return_value="glibc 2.36")
    if case == "confstr raises":
        confstr = Mock(side_effect=ValueError("unrecognized configuration name"))
    elif case == "confstr None":
        confstr = Mock(return_value=None)
    mallopt = Mock(return_value=0 if case == "mallopt fails" else 1)
    cdll = Mock(return_value=SimpleNamespace() if case == "no mallopt" else SimpleNamespace(mallopt=mallopt))
    if case == "no libc":
        cdll = Mock(side_effect=OSError("no libc"))
    with patch.object(os, "confstr", confstr), patch.object(ctypes, "CDLL", cdll):
        assert regroot._keep_freed_memory() is False
    assert cdll.called == (case not in ("confstr raises", "confstr None"))
    # A failed call changes nothing, and the trim threshold is not tried.
    assert mallopt.call_args_list == ([MMAP] if case == "mallopt fails" else [])


def test_import_works_when_ctypes_cannot_load_the_libc():
    code = """
import ctypes
def refuse(*args, **kwargs):
    raise OSError("no libc")
ctypes.CDLL = refuse
import regroot
print(regroot._keep_freed_memory(), regroot.minimize(regroot.dfa_based_on(regroot.ukl_generators(2, 3))).n)
"""
    assert _fresh(code).split() == ["False", "5"]


@glibc_only
def test_minimize_of_the_u34_root_dfa_raises_the_peak_by_under_24_mb():
    # The refinement keeps its per-state arrays in int32 and only the packed
    # keys in int64, so minimize of the 607,285-state U_{3,4} root DFA adds
    # under 24 MB to the peak RSS that root_automaton leaves in a fresh
    # process; with every array in int64 it added 33 MB.
    code = """
import resource
from regroot import dfa_based_on, minimize, root_automaton, ukl_generators
dfa = root_automaton(dfa_based_on(ukl_generators(3, 4))).dfa
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert minimize(dfa).n == 607_264
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""
    rise = int(_fresh(code)) / 1024  # ru_maxrss is in KiB on Linux
    assert rise < 24, f"minimize raised the peak RSS by {rise:.1f} MB"
