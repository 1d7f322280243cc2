"""Packaging metadata so that ``pip install -e .`` works without PYTHONPATH."""

from pathlib import Path

from setuptools import find_packages, setup

_paper = Path(__file__).parent / "PAPER.md"

setup(
    name="celestial-repro",
    version="0.1.0",
    description=(
        "Reproduction of Celestial: virtual software system testbeds for the LEO edge "
        "(Pfandzelter & Bermbach, Middleware '22)"
    ),
    long_description=_paper.read_text() if _paper.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    entry_points={
        "console_scripts": ["repro-celestial=repro.cli:main"],
    },
    install_requires=[
        "numpy>=1.23",
        "scipy>=1.9",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: System :: Emulators",
        "Topic :: Scientific/Engineering",
    ],
)
