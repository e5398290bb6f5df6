"""hyparr: exact lattices, modular elements and supersolvability for complex
hyperplane arrangements.

All arithmetic runs over cyclotomic fields Q(zeta_n) with exact rationals;
no tolerances exist anywhere.  See the README for the CLI and the
verification suite.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analysis import (ModularityVerdict, PoincarePolynomial, Rank2Report,
                       SupersolvabilityCertificate, check_rank2_criterion,
                       checked_exponents, exponents_from_poincare, irreducible_factor_count,
                       is_modular, is_supersolvable, mobius, modular_flats_of_rank, poincare,
                       replay_witness, validate_certificate)
from .arrangement import (Arrangement, Flat, IntersectionLattice, build_lattice, closure,
                          essentialize, irreducible_decomposition, lattice_of,
                          make_arrangement, product, restriction)
from .cyclo import CyclotomicNumber, cyclotomic_polynomial, embed, root_of_unity
from .errors import (HyparrError, InternalInconsistencyError, InvalidHyperplaneError,
                     ParseError, RefusalError)
from .linalg import LinearForm, Subspace, subspace_from_forms, subspace_sum
from .parse import parse_arrangement_file, parse_arrangement_text, parse_form, parse_scalar
from .reflection import (CatalogEntry, build_named, catalog, exceptional_arrangement,
                         monomial_arrangement)


def kernel_backend() -> str:
    """Name of the arithmetic kernel: there is one, in pure Python."""
    return "python"


# the public names bound above; importing them binds their submodules too
# (``analysis``, ``parse``, ...), which are left out
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
