"""Setuptools entry point.

The editable install path of modern pip (PEP 660) requires the ``wheel``
package, which is not available in fully offline environments; this classic
``setup.py`` keeps ``python setup.py develop`` / legacy editable installs
working there.  It is the only packaging metadata: the ``repro`` package
lives under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
