#include "ckks/graph/graph.h"

#include <utility>

#include "common/check.h"

namespace cross::ckks::graph {

const char *
nodeKindName(NodeKind kind)
{
    switch (kind) {
      case NodeKind::Input: return "Input";
      case NodeKind::Add: return "Add";
      case NodeKind::Multiply: return "Multiply";
      case NodeKind::AddPlain: return "AddPlain";
      case NodeKind::MultiplyPlain: return "MultiplyPlain";
      case NodeKind::Rotate: return "Rotate";
      case NodeKind::LinearTransform: return "LinearTransform";
      case NodeKind::Rescale: return "Rescale";
      case NodeKind::Reduce: return "Reduce";
      case NodeKind::Polynomial: return "Polynomial";
    }
    return "?";
}

PlainOperand
PlainOperand::base(std::vector<double> v)
{
    PlainOperand p;
    p.values = std::move(v);
    p.policy = ScalePolicy::Base;
    return p;
}

PlainOperand
PlainOperand::matching(std::vector<double> v)
{
    PlainOperand p;
    p.values = std::move(v);
    p.policy = ScalePolicy::Match;
    return p;
}

PlainOperand
PlainOperand::at(std::vector<double> v, double scale)
{
    requireThat(scale > 0, "PlainOperand: explicit scale must be > 0");
    PlainOperand p;
    p.values = std::move(v);
    p.policy = ScalePolicy::Explicit;
    p.explicitScale = scale;
    return p;
}

NodeId
Graph::push(Node n)
{
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Graph::checkArg(NodeId a, const char *what) const
{
    requireThat(a < nodes_.size(), what);
}

NodeId
Graph::input(std::string label)
{
    Node n;
    n.kind = NodeKind::Input;
    n.label = std::move(label);
    const NodeId id = push(std::move(n));
    inputs_.push_back(id);
    return id;
}

NodeId
Graph::add(NodeId a, NodeId b, std::string label)
{
    checkArg(a, "Graph::add: bad operand id");
    checkArg(b, "Graph::add: bad operand id");
    Node n;
    n.kind = NodeKind::Add;
    n.args = {a, b};
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::multiply(NodeId a, NodeId b, std::string label)
{
    checkArg(a, "Graph::multiply: bad operand id");
    checkArg(b, "Graph::multiply: bad operand id");
    Node n;
    n.kind = NodeKind::Multiply;
    n.args = {a, b};
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::addPlain(NodeId a, PlainOperand pt, std::string label)
{
    checkArg(a, "Graph::addPlain: bad operand id");
    requireThat(!pt.values.empty(),
                "Graph::addPlain: empty plaintext operand");
    Node n;
    n.kind = NodeKind::AddPlain;
    n.args = {a};
    n.plain = std::move(pt);
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::multiplyPlain(NodeId a, PlainOperand pt, std::string label)
{
    checkArg(a, "Graph::multiplyPlain: bad operand id");
    requireThat(!pt.values.empty(),
                "Graph::multiplyPlain: empty plaintext operand");
    Node n;
    n.kind = NodeKind::MultiplyPlain;
    n.args = {a};
    n.plain = std::move(pt);
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::rotate(NodeId a, i64 steps, std::string label)
{
    checkArg(a, "Graph::rotate: bad operand id");
    Node n;
    n.kind = NodeKind::Rotate;
    n.args = {a};
    n.steps = steps;
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::slotSum(NodeId a, std::vector<i64> steps, std::string label)
{
    checkArg(a, "Graph::slotSum: bad operand id");
    requireThat(!steps.empty(), "Graph::slotSum: need at least one step");
    Node n;
    n.kind = NodeKind::LinearTransform;
    n.args = {a};
    n.branchSteps = std::move(steps);
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::rescale(NodeId a, std::string label)
{
    checkArg(a, "Graph::rescale: bad operand id");
    Node n;
    n.kind = NodeKind::Rescale;
    n.args = {a};
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::reduceTo(NodeId a, NodeId ref, bool adopt_scale, std::string label)
{
    checkArg(a, "Graph::reduceTo: bad operand id");
    checkArg(ref, "Graph::reduceTo: bad reference id");
    Node n;
    n.kind = NodeKind::Reduce;
    n.args = {a, ref};
    n.adoptScale = adopt_scale;
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::matVec(NodeId x, std::vector<std::vector<double>> w,
              size_t replicate, std::string label)
{
    checkArg(x, "Graph::matVec: bad operand id");
    requireThat(!w.empty(), "Graph::matVec: empty matrix");
    for (const auto &row : w)
        requireThat(row.size() == w.size(),
                    "Graph::matVec: matrix must be square");
    requireThat(replicate >= 1, "Graph::matVec: replicate must be >= 1");
    Node n;
    n.kind = NodeKind::LinearTransform;
    n.args = {x};
    const size_t dim = w.size();
    for (size_t d = 0; d < dim; ++d) {
        // diag_d over dim * replicate slots, zero beyond the first
        // block: the replicated copies only feed the rotations.
        std::vector<double> diag(dim * replicate, 0.0);
        for (size_t i = 0; i < dim; ++i)
            diag[i] = w[i][(i + d) % dim];
        n.weights.push_back(std::move(diag));
        if (d > 0)
            n.branchSteps.push_back(static_cast<i64>(d));
    }
    n.replicate = replicate;
    n.label = std::move(label);
    return push(std::move(n));
}

NodeId
Graph::polynomial(NodeId x, std::vector<double> coeffs,
                  size_t const_slots, std::string label)
{
    checkArg(x, "Graph::polynomial: bad operand id");
    requireThat(coeffs.size() >= 2 && coeffs.size() <= 4,
                "Graph::polynomial: degree must be 1..3");
    requireThat(const_slots >= 1,
                "Graph::polynomial: need at least one constant slot");
    bool any = false;
    for (size_t k = 1; k < coeffs.size(); ++k)
        any = any || coeffs[k] != 0.0;
    requireThat(any, "Graph::polynomial: all non-constant coefficients "
                     "are zero");
    Node n;
    n.kind = NodeKind::Polynomial;
    n.args = {x};
    n.coeffs = std::move(coeffs);
    n.polySlots = const_slots;
    n.label = std::move(label);
    return push(std::move(n));
}

void
Graph::setRepeat(NodeId n, u64 repeat)
{
    checkArg(n, "Graph::setRepeat: bad node id");
    requireThat(repeat >= 1, "Graph::setRepeat: repeat must be >= 1");
    nodes_[n].repeat = repeat;
}

void
Graph::markOutput(NodeId n)
{
    checkArg(n, "Graph::markOutput: bad node id");
    outputs_.push_back(n);
}

namespace {

/** Expansion context: the target graph plus the old->new id map. */
struct Expansion
{
    Graph out;
    std::vector<NodeId> map;

    NodeId at(NodeId old) const { return map[old]; }
};

NodeId
expandPolynomial(Expansion &e, const Node &n)
{
    const NodeId x = e.at(n.args[0]);
    const auto &c = n.coeffs;
    const auto cAt = [&](size_t k) {
        return k < c.size() ? c[k] : 0.0;
    };
    const auto constant = [&](double v) {
        return PlainOperand::base(
            std::vector<double>(n.polySlots, v));
    };
    const auto tag = [&](NodeId id) {
        e.out.setRepeat(id, n.repeat);
        return id;
    };

    // Power basis, exactly as the HELR example built it: x^2 first,
    // then x^3 = rescale(x^2 * reduce(x)) when a cubic term exists.
    const bool need3 = cAt(3) != 0.0;
    const bool need2 = cAt(2) != 0.0 || need3;
    NodeId x2 = x, x3 = x;
    if (need2)
        x2 = tag(e.out.rescale(tag(e.out.multiply(x, x, n.label)),
                               n.label));
    if (need3) {
        const NodeId x_low =
            tag(e.out.reduceTo(x, x2, /*adopt_scale=*/false, n.label));
        x3 = tag(e.out.rescale(tag(e.out.multiply(x2, x_low, n.label)),
                               n.label));
    }

    // One multiplyPlain + rescale per non-zero term, folded in
    // ascending degree; levels align via Reduce-adopt before each add.
    const NodeId powers[] = {x, x, x2, x3};
    NodeId acc = 0;
    bool have_acc = false;
    for (size_t k = 1; k <= 3; ++k) {
        if (cAt(k) == 0.0)
            continue;
        const NodeId term = tag(e.out.rescale(
            tag(e.out.multiplyPlain(powers[k], constant(cAt(k)),
                                    n.label)),
            n.label));
        if (!have_acc) {
            acc = term;
            have_acc = true;
        } else {
            const NodeId aligned = tag(e.out.reduceTo(
                acc, term, /*adopt_scale=*/true, n.label));
            acc = tag(e.out.add(aligned, term, n.label));
        }
    }
    if (cAt(0) != 0.0) {
        acc = tag(e.out.addPlain(
            acc, PlainOperand::matching(
                     std::vector<double>(n.polySlots, cAt(0))),
            n.label));
    }
    return acc;
}

} // namespace

Graph
Graph::expanded() const
{
    Expansion e;
    e.map.resize(nodes_.size());
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &n = nodes_[id];
        switch (n.kind) {
          case NodeKind::Polynomial:
            e.map[id] = expandPolynomial(e, n);
            break;
          case NodeKind::Input:
            e.map[id] = e.out.input(n.label);
            break;
          default: {
            Node copy = n;
            for (NodeId &a : copy.args)
                a = e.at(a);
            e.map[id] = e.out.push(std::move(copy));
            break;
          }
        }
    }
    for (NodeId out : outputs_)
        e.out.markOutput(e.at(out));
    return std::move(e.out);
}

} // namespace cross::ckks::graph
