"""Setuptools entry point.

The offline evaluation environment has no ``wheel`` package, so modern
``pip install -e .`` (which builds an editable wheel) cannot run; this
classic setup script keeps ``python setup.py develop`` and
``pip install -e . --no-build-isolation`` working there.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: the one version string, also folded into every result-cache key
VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'HIPE: HMC Instruction Predication Extension "
        "Applied on Database Processing' (DATE 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
