"""Exact computations in the open string algebra of matrix chain models."""

from .core import (
    AlgebraParams,
    Combination,
    Element,
    Generator,
    IndexRangeError,
    charge,
    element,
    gen_f,
    gen_key,
    gen_l,
    gen_r,
    gen_s,
    grade,
    omega,
    omega_gen,
    render_element,
    render_generator,
)
from .bracket import (
    TriangularClass,
    bracket,
    cartan_commutes,
    classify,
    is_root_vector,
)
from .chains import (
    Chain,
    act,
    act_tensor,
    all_chains,
    arg_at,
    arg_index,
    chain,
    chain_state,
    equal_on_chains,
    inner_chain,
    lowest_weight_vector_concrete,
    tensor_state,
    young_project,
)
from .basis import (
    in_b0,
    in_b4,
    independence_check_b0,
    to_b0,
    to_b4,
)
from .weights import (
    Weight,
    is_approximately_finite,
    read_weight,
    split_weight,
    tail_parameters,
    weight_from_partition,
    write_weight,
)
from .verma import (
    GramMatrix,
    Inertia,
    apply_element,
    expectation,
    gram_matrix,
    hermitian_form,
    inertia,
    pbw_words,
    sl2_triple,
    truncated_interior_norm_check,
    vacuum,
)
from .cli import ExprSyntaxError, main, parse

__all__ = [name for name in dir() if not name.startswith("_")]
