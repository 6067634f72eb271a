#include "ipa/callgraph.h"

#include <algorithm>
#include <functional>

namespace padfa::ipa {

namespace {

void collectCalls(const BlockStmt& block,
                  std::vector<const ProcDecl*>& out) {
  for (const auto& st : block.stmts) {
    switch (st->kind) {
      case StmtKind::Call: {
        const auto& c = static_cast<const CallStmt&>(*st);
        if (c.callee_proc) out.push_back(c.callee_proc);
        break;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const IfStmt&>(*st);
        collectCalls(*i.then_block, out);
        if (i.else_block) collectCalls(*i.else_block, out);
        break;
      }
      case StmtKind::For:
        collectCalls(*static_cast<const ForStmt&>(*st).body, out);
        break;
      case StmtKind::Block:
        collectCalls(static_cast<const BlockStmt&>(*st), out);
        break;
      default:
        break;
    }
  }
}

}  // namespace

CallGraph CallGraph::build(const Program& program) {
  CallGraph g;
  std::map<const ProcDecl*, size_t> order;
  for (const auto& p : program.procs) {
    order[p.get()] = g.procs_.size();
    g.procs_.push_back(p.get());
    g.callees_[p.get()];
    g.callers_[p.get()];
  }
  for (const ProcDecl* caller : g.procs_) {
    std::vector<const ProcDecl*> calls;
    collectCalls(*caller->body, calls);
    for (const ProcDecl* callee : calls) ++g.sites_[{caller, callee}];
    std::sort(calls.begin(), calls.end(),
              [&order](const ProcDecl* a, const ProcDecl* b) {
                return order.at(a) < order.at(b);
              });
    calls.erase(std::unique(calls.begin(), calls.end()), calls.end());
    g.callees_[caller] = calls;
    for (const ProcDecl* callee : calls) g.callers_[callee].push_back(caller);
  }
  // callers_ entries were appended in caller program order already (the
  // outer loop runs in program order), so they need no re-sort.

  // Tarjan. An SCC is emitted only after every SCC it can reach, so
  // emission order is callee-before-caller — exactly the id order the
  // header promises.
  struct TarjanState {
    std::map<const ProcDecl*, size_t> index, lowlink;
    std::vector<const ProcDecl*> stack;
    std::set<const ProcDecl*> on_stack;
    size_t next = 0;
  } t;
  std::function<void(const ProcDecl*)> strongconnect =
      [&](const ProcDecl* v) {
        t.index[v] = t.lowlink[v] = t.next++;
        t.stack.push_back(v);
        t.on_stack.insert(v);
        for (const ProcDecl* w : g.callees_.at(v)) {
          if (!t.index.count(w)) {
            strongconnect(w);
            t.lowlink[v] = std::min(t.lowlink[v], t.lowlink[w]);
          } else if (t.on_stack.count(w)) {
            t.lowlink[v] = std::min(t.lowlink[v], t.index[w]);
          }
        }
        if (t.lowlink[v] == t.index[v]) {
          std::vector<const ProcDecl*> members;
          const ProcDecl* w = nullptr;
          do {
            w = t.stack.back();
            t.stack.pop_back();
            t.on_stack.erase(w);
            members.push_back(w);
          } while (w != v);
          std::sort(members.begin(), members.end(),
                    [&order](const ProcDecl* a, const ProcDecl* b) {
                      return order.at(a) < order.at(b);
                    });
          size_t id = g.scc_members_.size();
          for (const ProcDecl* m : members) g.scc_of_[m] = id;
          g.scc_members_.push_back(std::move(members));
        }
      };
  for (const ProcDecl* p : g.procs_)
    if (!t.index.count(p)) strongconnect(p);
  return g;
}

const std::vector<const ProcDecl*>& CallGraph::callees(
    const ProcDecl* p) const {
  return callees_.at(p);
}

const std::vector<const ProcDecl*>& CallGraph::callers(
    const ProcDecl* p) const {
  return callers_.at(p);
}

size_t CallGraph::callSites(const ProcDecl* caller,
                            const ProcDecl* callee) const {
  auto it = sites_.find({caller, callee});
  return it == sites_.end() ? 0 : it->second;
}

size_t CallGraph::sccOf(const ProcDecl* p) const { return scc_of_.at(p); }

const std::vector<const ProcDecl*>& CallGraph::sccMembers(size_t scc) const {
  return scc_members_.at(scc);
}

std::vector<const ProcDecl*> CallGraph::bottomUpOrder() const {
  std::vector<const ProcDecl*> out;
  std::set<const ProcDecl*> done;
  // Every pass emits at least the lowest-id SCC not yet emitted, whose
  // outside callees all sit in lower (already emitted) SCCs.
  while (out.size() < procs_.size()) {
    for (const ProcDecl* p : procs_) {
      if (done.count(p)) continue;
      bool ready = true;
      for (const ProcDecl* c : callees_.at(p))
        if (sccOf(c) != sccOf(p) && !done.count(c)) ready = false;
      if (!ready) continue;
      out.push_back(p);
      done.insert(p);
    }
  }
  return out;
}

std::set<const ProcDecl*> CallGraph::reachableFrom(
    const ProcDecl* entry) const {
  std::set<const ProcDecl*> seen;
  std::vector<const ProcDecl*> work{entry};
  while (!work.empty()) {
    const ProcDecl* p = work.back();
    work.pop_back();
    if (!seen.insert(p).second) continue;
    for (const ProcDecl* c : callees_.at(p)) work.push_back(c);
  }
  return seen;
}

std::set<const ProcDecl*> CallGraph::ancestorClosure(
    const std::set<const ProcDecl*>& changed) const {
  std::set<const ProcDecl*> dirty;
  std::vector<const ProcDecl*> work(changed.begin(), changed.end());
  while (!work.empty()) {
    const ProcDecl* p = work.back();
    work.pop_back();
    if (!dirty.insert(p).second) continue;
    // Whole SCC: every member's summary depends on every other's.
    for (const ProcDecl* m : sccMembers(sccOf(p))) work.push_back(m);
    for (const ProcDecl* c : callers_.at(p)) work.push_back(c);
  }
  return dirty;
}

}  // namespace padfa::ipa
