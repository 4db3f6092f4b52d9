"""Refracting interfaces between anisotropic media with norm wave fronts.

Library layout (the package re-exports nothing: import names from their
modules, e.g. ``from refractor.snell import refract``):

* ``norms``     norm calculus, ``Norm.dual()``, contrast constant kappa
* ``snell``     vector Snell law and the Fermat least-path oracle
* ``surfaces``  uniformly refracting surfaces S_I / S_II
* ``solver``    semi-discrete refractor design: fill rounds, then Newton
* ``theory``    continuous targets, dilations and the Lipschitz bound
* ``fresnel``   Fresnel sheet algebra and material-to-norm conversion
* ``transport`` transport cost and the design's duality certificate
* ``kernels``   numpy scoring, tally and threshold kernels
* ``cli``       command-line front end (``refractor`` entry point)
"""

__version__ = "0.1.0"
