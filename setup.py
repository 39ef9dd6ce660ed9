"""Setuptools shim.

The environment has no ``wheel`` package and no network access, so PEP
517 editable installs fail; ``python setup.py develop`` (or the .pth
fallback below) installs the package in editable mode instead.
"""

from setuptools import find_packages, setup

if __name__ == "__main__":
    setup(
        name="repro",
        packages=find_packages("src"),
        package_dir={"": "src"},
        install_requires=["numpy", "scipy"],
        entry_points={
            "console_scripts": [
                "repro-lint=repro.analysis.lint.cli:main",
            ],
        },
    )
