"""ringlab: exact rings, ideals, polynomials, and finite-field varieties."""

from .axioms import (
    AxiomReport,
    all_triples,
    check_ring_axioms,
    random_rational_triples,
)
from .domains import (
    Domain,
    Fp,
    HomReport,
    ModHomomorphism,
    QQ,
    RingElement,
    Zn,
    ZZ,
    hom_check,
    is_prime,
    units_of,
)
from .intideals import (
    IntIdeal,
    PrimeDefinitionVerdict,
    ZnIdeal,
    ascending_chain_stabilizes,
    enumerate_ideals_mod_n,
    prime_defs_agree,
    quotient_ring,
)
from .parsing import parse_polynomial
from .polyideals import (
    BasisExtraction,
    ChainStep,
    IdealComparison,
    IdealPresentation,
    MembershipCertificate,
    divmod_univariate,
    gcd_univariate,
    hbt_extract_univariate,
    ideal_equal_bounded,
    membership_bounded,
    monic,
    radical_univariate,
    strict_chain_demo,
)
from .polynomials import (
    Polynomial,
    PolyRing,
    format_polynomial,
    poly_from_json,
    poly_to_json,
)
from .raster import RasterGrid, raster_plane_curve, render_ascii, render_svg
from .varieties import (
    PointSet,
    PrimenessReport,
    VanishingIdealResult,
    decompose,
    field_equations,
    indicator_polynomial,
    is_irreducible,
    is_prime_vanishing_ideal,
    vanishing_ideal,
    variety,
    viv_closure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
