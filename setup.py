from setuptools import find_packages, setup

setup(
    name="repro-balls-into-nonuniform-bins",
    version="1.0.0",
    description=(
        "Reproduction of Berenbrink et al., 'Balls into Non-uniform Bins' "
        "(IPDPS 2010): capacity-aware multiple-choice allocation, analysis "
        "machinery, and every evaluation figure as a registered experiment"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The native tier (repro/native.py) compiles this source on first use;
    # an installed copy without it falls back to the NumPy tiers.
    package_data={"repro": ["native.c"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        # The compiled kernel backend (repro.core.compiled) jits its loops
        # when numba is importable and falls back to bit-identical plain
        # Python otherwise; nothing outside this extra requires numba.
        "compiled": ["numba"],
        # scipy is used only to cross-pin the pure-numpy Student-t
        # quantiles in the test suite; runtime code never imports it.
        "test": ["pytest", "pytest-benchmark", "scipy"],
    },
)
