"""Finite-volume simulation of acid-mediated tumour invasion fronts in 1-D,
with space-dependent acid diffusivity, wave-speed estimation, and
homogenization analysis.

The namespace holds no names: each is imported from its one module, and
importing a module loads only the modules of earlier layers (``errors``,
``core`` → ``mesh`` → ``scheme`` → ``analysis`` → ``scenarios`` → ``cli``)."""

__version__ = "0.1.0"
