"""Setuptools packaging for the ``repro`` package (a ``src/`` layout).

All project metadata lives here; the repository has no ``pyproject.toml``.
The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs (``pip install -e .`` with build isolation) cannot
build an editable wheel; ``pip install --no-use-pep517 -e .`` takes the
legacy editable path through this file.  ``python setup.py --name`` prints
the package name without building anything.

SciPy 1.16 is the first release that ships PRIMA's COBYLA core
(``scipy/_lib/pyprima``), which :mod:`repro.solvers.optimizer` loads at import.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy>=1.16"],
)
