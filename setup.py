"""Build script: compiles the optional arithmetic kernel.

The package is pure Python; the Cython extension only accelerates the hot
integer kernels.  If the extension cannot be built the install proceeds and
hyparr falls back to the pure-Python kernel at import time.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"warning: building the hyparr speedup extension failed ({exc}); "
              "falling back to the pure-Python kernel", file=sys.stderr)


try:
    from Cython.Build import cythonize

    extensions = cythonize(
        [Extension("hyparr._kernel._speedups", ["src/hyparr/_kernel/_speedups.pyx"])],
        language_level="3",
    )
except ImportError:
    # without Cython, compile the shipped C file generated from the .pyx
    extensions = [Extension("hyparr._kernel._speedups", ["src/hyparr/_kernel/_speedups.c"])]

setup(ext_modules=extensions, cmdclass={"build_ext": optional_build_ext})
