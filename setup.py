"""Package metadata: name, ``src/`` layout, supported Python.

There is no ``pyproject.toml``; this file is the whole build definition.
``pip install -e .`` builds from it (pip brings setuptools and wheel into
its build environment); with no network, ``python setup.py develop`` does
the same using the setuptools already installed.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Fog-to-Cloud data management for smart cities (ICDCS 2017 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",  # the version CI runs; older ones are untested
    install_requires=["numpy>=1.24"],
)
