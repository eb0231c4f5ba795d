#include "ir/printer.hpp"

#include "common/strings.hpp"

namespace hlsprof::ir {

namespace {

class Printer {
 public:
  explicit Printer(const Kernel& k) : k_(k) {}

  std::string run() {
    out_ += strf("kernel %s(num_threads=%d) {\n", k_.name.c_str(),
                 k_.num_threads);
    indent_ = 1;
    for (std::size_t i = 0; i < k_.args.size(); ++i) {
      const Arg& a = k_.args[i];
      if (a.is_pointer) {
        line(strf("arg @%zu %s: %s* map(%s) [%lld]", i, a.name.c_str(),
                  to_string(a.elem_type).c_str(), map_dir_name(a.map),
                  static_cast<long long>(a.count)));
      } else {
        line(strf("arg @%zu %s: %s", i, a.name.c_str(),
                  to_string(a.elem_type).c_str()));
      }
    }
    for (std::size_t i = 0; i < k_.local_arrays.size(); ++i) {
      const LocalArray& a = k_.local_arrays[i];
      line(strf("local $%zu %s: %s[%lld] ports=%d", i, a.name.c_str(),
                to_string(a.elem).c_str(), static_cast<long long>(a.size),
                a.ports));
    }
    region(k_.body);
    indent_ = 0;
    out_ += "}\n";
    return std::move(out_);
  }

 private:
  void line(const std::string& s) {
    out_.append(static_cast<std::size_t>(indent_) * 2, ' ');
    out_ += s;
    out_ += '\n';
  }

  std::string vname(ValueId v) const { return strf("%%%d", v); }

  void region(const Region& r) {
    for (const Stmt& s : r.stmts) {
      if (const auto* os = std::get_if<OpStmt>(&s)) {
        op_line(os->op);
      } else if (const auto* loop = std::get_if<LoopStmt>(&s)) {
        line(strf("for %s [loop %d, var v%d] = %s; < %s; += %s %s{",
                  loop->name.c_str(), loop->id, loop->induction,
                  vname(loop->init).c_str(), vname(loop->bound).c_str(),
                  vname(loop->step).c_str(),
                  loop->pipeline ? "pipeline " : ""));
        ++indent_;
        region(*loop->body);
        --indent_;
        line("}");
      } else if (const auto* iff = std::get_if<IfStmt>(&s)) {
        line(strf("if %s {", vname(iff->cond).c_str()));
        ++indent_;
        region(*iff->then_body);
        --indent_;
        if (!iff->else_body->stmts.empty()) {
          line("} else {");
          ++indent_;
          region(*iff->else_body);
          --indent_;
        }
        line("}");
      } else if (const auto* crit = std::get_if<CriticalStmt>(&s)) {
        line(strf("critical(lock=%d) {", crit->lock_id));
        ++indent_;
        region(*crit->body);
        --indent_;
        line("}");
      } else if (const auto* con = std::get_if<ConcurrentStmt>(&s)) {
        line(strf("concurrent%s {",
                  con->user_asserted_independent ? " [independent]" : ""));
        for (std::size_t i = 0; i < con->branches.size(); ++i) {
          ++indent_;
          line(strf("branch %zu:", i));
          ++indent_;
          region(*con->branches[i]);
          indent_ -= 2;
        }
        line("}");
      } else if (const auto* bar = std::get_if<BarrierStmt>(&s)) {
        line(strf("barrier(%d)", bar->barrier_id));
      }
    }
  }

  void op_line(ValueId id) {
    const Op& op = k_.op(id);
    std::string rhs = opcode_name(op.opcode);
    switch (op.opcode) {
      case Opcode::const_int:
        rhs += strf(" %lld", static_cast<long long>(op.i_imm));
        break;
      case Opcode::const_float:
        rhs += strf(" %g", op.f_imm);
        break;
      case Opcode::read_arg:
        rhs += strf(" @%d(%s)", op.arg,
                    k_.args[static_cast<std::size_t>(op.arg)].name.c_str());
        break;
      case Opcode::load_ext:
      case Opcode::store_ext:
        rhs += strf(" @%d(%s)", op.arg,
                    k_.args[static_cast<std::size_t>(op.arg)].name.c_str());
        break;
      case Opcode::preload:
        rhs += strf(" @%d(%s) -> $%d(%s)", op.arg,
                    k_.args[static_cast<std::size_t>(op.arg)].name.c_str(),
                    op.array,
                    k_.local_arrays[static_cast<std::size_t>(op.array)]
                        .name.c_str());
        break;
      case Opcode::load_local:
      case Opcode::store_local:
        rhs += strf(
            " $%d(%s)", op.array,
            k_.local_arrays[static_cast<std::size_t>(op.array)].name.c_str());
        break;
      case Opcode::var_read:
      case Opcode::var_write:
        rhs += strf(" v%d(%s)", op.var,
                    k_.vars[static_cast<std::size_t>(op.var)].name.c_str());
        break;
      case Opcode::extract:
      case Opcode::insert:
        rhs += strf(" lane=%lld", static_cast<long long>(op.i_imm));
        break;
      default:
        break;
    }
    for (ValueId o : op.operands) {
      rhs += ' ';
      rhs += vname(o);
    }
    if (produces_value(op.opcode)) {
      line(strf("%s: %s = %s", vname(id).c_str(),
                to_string(op.type).c_str(), rhs.c_str()));
    } else {
      line(rhs);
    }
  }

  const Kernel& k_;
  std::string out_;
  int indent_ = 0;
};

}  // namespace

std::string print(const Kernel& k) { return Printer(k).run(); }

}  // namespace hlsprof::ir
