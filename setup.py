"""Setuptools shim.

There is no ``pyproject.toml``: this file declares the package.  It
installs in offline environments that lack the ``wheel`` package
(``python setup.py develop``) as well as with ``pip install -e .``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "networkx", "scipy"],
)
