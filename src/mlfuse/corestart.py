"""numpy's C core without numpy's Python layer, for both deployments.

STANDINS is code that runs at the top of a process, with os, site and sys
imported, before anything there imports numpy. It caps OpenBLAS at one
thread and, when numpy is not loaded yet, puts bare modules in for numpy,
numpy._core and numpy._globals (and _datetime in for datetime), so that
`from numpy._core import _multiarray_umath` then loads the C core and none
of numpy's Python layer. The stand-ins follow numpy 2.4.6's private
layout, and this is the one place that layout is written: the generated
program's __main__ holds STANDINS verbatim (codegen._MAIN_SRC), and the
`mlfuse run` and `mlfuse inspect` commands run it through start(). Its
comments speak of the program; the runtime modules those commands load
(graphir, lowering, the kernels, interpreter, cli) likewise call only
names on the core.

Both deployments are one-shot processes. Each turns the cyclic collector
off before this runs, and ends at its last write with os._exit, past
CPython's teardown (codegen._MAIN_SRC; cli.main for those two commands).
"""

import os
import site
import sys

STANDINS = '''\
os.environ["OPENBLAS_NUM_THREADS"] = "1"
if "numpy" not in sys.modules:
    # numpy's __init__ loads its whole Python layer, and every name the
    # program calls is on the C core: bare package modules stand in for
    # numpy and numpy._core, so loading the core runs neither __init__.
    # The core's init reads three names of numpy._globals, whose module
    # would load enum and numpy._utils for them: a bare one holds just
    # those (the program passes no copy= and reads no ufunc's signature,
    # so a plain class and None do). It also imports datetime for the
    # capsule that _datetime defines.
    for d in site.getsitepackages([sys.prefix, sys.base_prefix]):
        if os.path.isfile(d + "/numpy/__init__.py"):
            sys.modules["numpy"] = m = type(sys)("numpy")
            sys.modules["numpy._core"] = c = type(sys)("numpy._core")
            sys.modules["numpy._globals"] = g = type(sys)("numpy._globals")
            m.__path__ = [d + "/numpy"]
            c.__path__ = [d + "/numpy/_core"]
            g._NoValue = object()
            g._CopyMode = type("_CopyMode", (), {})
            g._signature_descriptor = None
            sys.modules.setdefault("datetime", __import__("_datetime"))
            break
'''


def start() -> None:
    """Run STANDINS in this process and load the core under them.

    Where the core will not load so (a numpy laid out otherwise), every
    module the attempt put in comes out again and numpy loads whole, as
    it would without the stand-ins. A core whose own init fails part way
    (one that reads a name no stand-in holds) cannot load a second time
    in the process, so that ends the command: one error line, exit 2.
    The tests' read of the names the core takes from each stand-in fails
    on such a numpy first.
    """
    before = set(sys.modules)
    exec(STANDINS, {"os": os, "site": site, "sys": sys})
    try:
        from numpy._core import _multiarray_umath  # noqa: F401
    except ImportError:
        for name in set(sys.modules) - before:
            del sys.modules[name]
        import numpy  # noqa: F401
    except AttributeError as e:
        print(f"error: {sys.executable} cannot load numpy's C core: {e}",
              file=sys.stderr)
        raise SystemExit(2)
