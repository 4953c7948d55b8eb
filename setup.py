"""Build script: compiles the optional C stepping kernel; without it the NumPy backend runs.

The kernel has no Python init function: `kinetic_em._steppers` loads it by
path with ctypes.  -ffp-contract=off keeps every multiply and add rounded on
its own, as NumPy rounds them, so the two backends agree bit for bit.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension(
    "kinetic_em._steppers._kernel",
    ["src/kinetic_em/_steppers/_kernel.c"],
    extra_compile_args=["-std=c99", "-O2", "-ffp-contract=off"],
    optional=True,
)])
