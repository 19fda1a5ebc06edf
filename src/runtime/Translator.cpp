//===- runtime/Translator.cpp - Mini dynamic binary translator ------------===//

#include "runtime/Translator.h"
#include "support/Contracts.h"

#include "runtime/Interpreter.h"

#include <algorithm>

using namespace ccsim;

/// A tier engine learns each block's edges as the translator installs it.
static CacheEngineConfig tierConfig(uint64_t CapacityBytes, bool Chaining,
                                    telemetry::TelemetrySink *Telemetry) {
  CacheEngineConfig C;
  C.CapacityBytes = CapacityBytes;
  C.EnableChaining = Chaining;
  C.Telemetry = Telemetry;
  return C;
}

Translator::Translator(const Program &P, const TranslatorConfig &Config)
    : Prog(P), Config(Config), State(Config.GuestMemoryBytes),
      Engine(tierConfig(Config.CacheBytes, Config.EnableChaining,
                        Config.Telemetry),
             makePolicy(Config.Policy)),
      // BB fragments never enter the link graph; the tier runs
      // fine-grained FIFO (DynamoRIO's default), i.e. a one-byte quantum.
      BBEngine(tierConfig(Config.BBCacheBytes, /*EnableChaining=*/false,
                          Config.Telemetry),
               makePolicy(GranularitySpec::fine())),
      Jitter(Config.Seed) {
  State.PC = P.EntryPC;
  HotCounter.assign(P.size(), 0);
  IdLookup.assign(P.size(), -1);
  Engine.setEvictPayload([this](auto V) { onSuperblockEvict(V); });
  Engine.setUnlinkPayload(
      [this](auto V, auto D) { onSuperblockUnlink(V, D); });
  BBEngine.setEvictPayload([this](auto V) { onBasicBlockEvict(V); });
}

SuperblockId Translator::idForPC(uint32_t PC) {
  CCSIM_ASSERT(PC < IdLookup.size(), "entry PC outside the program image");
  if (IdLookup[PC] >= 0)
    return static_cast<SuperblockId>(IdLookup[PC]);
  const SuperblockId Id = static_cast<SuperblockId>(PCById.size());
  IdLookup[PC] = static_cast<int32_t>(Id);
  PCById.push_back(PC);
  SlotById.push_back(DispatchTable::NotFound);
  BBSlotById.push_back(DispatchTable::NotFound);
  return Id;
}

double Translator::jittered(double Ops) {
  // A few percent of deterministic measurement noise, mimicking the
  // run-to-run variation of hardware counters.
  return Ops * (1.0 + (Jitter.nextDouble() - 0.5) * 0.06);
}

int32_t Translator::allocateSlot() {
  if (!FreeSlots.empty()) {
    const int32_t Slot = FreeSlots.back();
    FreeSlots.pop_back();
    return Slot;
  }
  Fragments.emplace_back();
  return static_cast<int32_t>(Fragments.size()) - 1;
}

uint64_t Translator::dropVictims(std::span<const CodeCache::Resident> Victims,
                                 DispatchTable &InTable,
                                 std::vector<int32_t> &SlotMap,
                                 double &ProbeOps) {
  uint64_t Bytes = 0;
  for (const CodeCache::Resident &V : Victims) {
    Bytes += V.Size;
    ProbeOps += InTable.remove(PCById[V.Id]) * Config.Weights.PerProbe;
    const int32_t Slot = SlotMap[V.Id];
    CCSIM_ASSERT(Slot >= 0, "evicted fragment has no slot");
    Fragments[static_cast<size_t>(Slot)] = Fragment();
    FreeSlots.push_back(Slot);
    SlotMap[V.Id] = DispatchTable::NotFound;
  }
  return Bytes;
}

void Translator::chargeRecordedInstruction() {
  ++Stats.GuestInstructions;
  ++Stats.InterpretedInstructions;
  Stats.Ops.InterpOps += Config.Weights.InterpPerGuestInstr;
  if (Budget)
    --Budget;
}

void Translator::chargeDispatch(unsigned Probes) {
  ++Stats.Dispatches;
  Stats.Ops.DispatchOps +=
      Config.Weights.DispatchBase + Probes * Config.Weights.PerProbe;
  if (Config.Weights.ProtectTranslator) {
    // Entering and leaving the (self-protected) translator flips the
    // code cache page protections twice — the dominant cost the paper
    // blames for the Table 2 slowdowns.
    Stats.Ops.ProtectionOps += 2.0 * Config.Weights.ProtectionChange;
  }
}

void Translator::interpretBlock() {
  Interpreter Interp(Prog, State);
  // The Interpreter constructor resets PC to the program entry; restore
  // the dispatcher's PC. (Interpreter is also used standalone.)
  // NOTE: construct-once-per-block is fine; it holds no state besides
  // the count.
  State.PC = DispatchPC;
  const uint64_t Executed = Interp.stepBlock();
  Stats.GuestInstructions += Executed;
  Stats.InterpretedInstructions += Executed;
  Stats.Ops.InterpOps +=
      static_cast<double>(Executed) * Config.Weights.InterpPerGuestInstr;
  Budget -= std::min(Budget, Executed);
}

void Translator::buildAndInstallFragment() {
  Fragment F;
  F.EntryPC = State.PC;
  F.Id = idForPC(F.EntryPC);

  uint32_t Bytes = 0;
  uint32_t GuestCount = 0;
  bool Indirect = false;

  // NET-style recording: execute the hot path and record it until a
  // trace-ending condition.
  for (;;) {
    Instruction Inst;
    if (!Prog.decodeAt(State.PC, Inst)) {
      State.Halted = true;
      break;
    }
    const uint32_t PC = State.PC;
    F.Code.push_back(Inst);
    F.PCs.push_back(PC);
    Bytes += Inst.Size;
    ++GuestCount;

    // Recording executes at interpreter speed.
    chargeRecordedInstruction();

    const uint32_t Next = executeInstruction(Inst, PC, State);
    State.PC = Next;

    if (State.Halted)
      break; // Halt (or Ret from the outermost frame) ends the trace.

    if (Inst.Op == Opcode::Call) {
      // Traces end at calls; the callee is a direct (linkable) exit.
      F.StaticEdges.push_back(idForPC(Next));
      break;
    }
    if (Inst.isIndirect()) {
      Indirect = true; // Ret/Jr: target resolved at run time via IBL.
      break;
    }
    if (Inst.isConditionalBranch()) {
      // The untaken direction becomes a side exit (potential link).
      const uint32_t Fallthrough = PC + Inst.Size;
      const uint32_t Other = (Next == Inst.Target) ? Fallthrough
                                                   : Inst.Target;
      F.StaticEdges.push_back(idForPC(Other));
      if (Next == Inst.Target && Inst.Target <= PC) {
        // Taken backward branch: the loop closes; stop the trace here
        // and make the loop head a direct exit (often a self-link).
        F.StaticEdges.push_back(idForPC(Next));
        break;
      }
      continue;
    }
    if (Inst.Op == Opcode::Jmp && Inst.Target <= PC) {
      F.StaticEdges.push_back(idForPC(Next));
      break; // Backward jump ends the trace like a loop edge.
    }
    if (GuestCount >= Config.MaxFragmentGuestInstrs) {
      F.StaticEdges.push_back(idForPC(State.PC));
      break; // Length cap: fall through to a fresh fragment.
    }
  }

  if (F.Code.empty())
    return;

  const uint32_t NumExits =
      static_cast<uint32_t>(F.StaticEdges.size()) + (Indirect ? 1u : 0u);
  F.CodeBytes = Bytes + NumExits * Config.StubBytesPerExit;
  if (F.CodeBytes > Engine.cache().capacity())
    return; // Uncacheable; it executed once during recording anyway.

  installFragment(std::move(F));
}

void Translator::buildAndInstallBasicBlock() {
  Fragment F;
  F.EntryPC = State.PC;
  F.Id = idForPC(F.EntryPC);
  F.IsBasicBlock = true;

  uint32_t Bytes = 0;
  bool Indirect = false;

  // A basic block runs to (and includes) its first control-flow
  // instruction; recording executes it once at interpreter speed.
  for (;;) {
    Instruction Inst;
    if (!Prog.decodeAt(State.PC, Inst)) {
      State.Halted = true;
      break;
    }
    const uint32_t PC = State.PC;
    F.Code.push_back(Inst);
    F.PCs.push_back(PC);
    Bytes += Inst.Size;

    chargeRecordedInstruction();

    const uint32_t Next = executeInstruction(Inst, PC, State);
    State.PC = Next;
    if (State.Halted)
      break;

    if (Inst.isControlFlow()) {
      if (Inst.isIndirect())
        Indirect = true;
      else if (Inst.isConditionalBranch()) {
        F.StaticEdges.push_back(idForPC(Inst.Target));
        F.StaticEdges.push_back(idForPC(PC + Inst.Size));
      } else {
        F.StaticEdges.push_back(idForPC(Next)); // Jmp/Call target.
      }
      break;
    }
    if (F.Code.size() >= 64) {
      F.StaticEdges.push_back(idForPC(State.PC));
      break; // Degenerate straight-line run: cap the block.
    }
  }

  if (F.Code.empty())
    return;
  const uint32_t NumExits =
      static_cast<uint32_t>(F.StaticEdges.size()) + (Indirect ? 1u : 0u);
  F.CodeBytes = Bytes + NumExits * Config.StubBytesPerExit;
  if (F.CodeBytes > BBEngine.cache().capacity())
    return;

  // Make room (firing onBasicBlockEvict per batch) and commit; no links.
  const bool Installed = BBEngine.install({F.Id, F.CodeBytes});
  CCSIM_ASSERT(Installed, "size was checked against the BB capacity");
  (void)Installed;

  const int32_t Slot = allocateSlot();
  BBSlotById[F.Id] = Slot;
  const unsigned Probes = BBTable.insert(F.EntryPC, Slot);
  ++Stats.BBFragmentsBuilt;
  Stats.Ops.BBTranslateOps +=
      jittered(Config.Weights.BBTranslateBase +
               Config.Weights.BBTranslatePerByte * F.CodeBytes +
               Probes * Config.Weights.PerProbe);
  Fragments[static_cast<size_t>(Slot)] = std::move(F);
  BBEngine.maybeAudit(BBEngine.lastInstallEvicted(), "bb-install");
}

void Translator::onBasicBlockEvict(
    std::span<const CodeCache::Resident> Victims) {
  CCSIM_ASSERT(!Victims.empty(), "no BB victims to process");
  double ProbeOps = 0;
  const uint64_t Bytes = dropVictims(Victims, BBTable, BBSlotById, ProbeOps);
  Stats.Ops.BBEvictOps +=
      jittered(Config.Weights.BBEvictBase +
               Config.Weights.BBEvictPerByte * static_cast<double>(Bytes) +
               ProbeOps);
}

void Translator::installFragment(Fragment &&Frag) {
  // The engine makes room at the policy's quantum (firing the payload
  // hooks per batch), commits, and links the recorded static edges.
  const bool Installed =
      Engine.install({Frag.Id, Frag.CodeBytes, Frag.StaticEdges});
  CCSIM_ASSERT(Installed, "size was checked against the capacity");
  (void)Installed;

  if (Config.RecordTrace) {
    // Remember the first-build shape of this superblock and count the
    // recording execution as one dispatch event.
    if (Frag.Id >= FirstBuildSize.size()) {
      FirstBuildSize.resize(Frag.Id + 1, 0);
      FirstBuildEdges.resize(Frag.Id + 1);
    }
    if (FirstBuildSize[Frag.Id] == 0) {
      FirstBuildSize[Frag.Id] = Frag.CodeBytes;
      FirstBuildEdges[Frag.Id] = Frag.StaticEdges;
    }
    RecordedAccesses.push_back(Frag.Id);
  }

  // Slots freed by this install's evictions are already reusable here.
  const int32_t Slot = allocateSlot();
  SlotById[Frag.Id] = Slot;
  const unsigned Probes = Table.insert(Frag.EntryPC, Slot);
  ++Stats.FragmentsBuilt;

  // Regeneration cost (Equation 3's shape): decode/analyze/emit per byte
  // plus fragment allocation and hash-table update.
  const double Ops =
      jittered(Config.Weights.TranslateBase +
               Config.Weights.TranslatePerByte * Frag.CodeBytes +
               Probes * Config.Weights.PerProbe);
  Stats.Ops.TranslateOps += Ops;
  Stats.Ops.MissSamples.push_back({static_cast<double>(Frag.CodeBytes), Ops});
  Fragments[static_cast<size_t>(Slot)] = std::move(Frag);

  // Audit only after the dispatch-table entry exists, so the
  // resident-unreachable rule never fires mid-install.
  Engine.sampleBackPointerMemory();
  Engine.maybeAudit(Engine.lastInstallEvicted(), "install");
}

void Translator::onSuperblockEvict(
    std::span<const CodeCache::Resident> Victims) {
  CCSIM_ASSERT(!Victims.empty(), "no victims to process");
  double ProbeOps = 0;
  const uint64_t Bytes = dropVictims(Victims, Table, SlotById, ProbeOps);

  // Eviction cost (Equation 2's shape): invocation fixed cost (protection
  // toggles + bookkeeping) plus per-byte scrubbing/free-list work.
  const double Ops =
      jittered(Config.Weights.EvictBase +
               Config.Weights.EvictPerByte * static_cast<double>(Bytes) +
               ProbeOps);
  Stats.Ops.EvictOps += Ops;
  Stats.Ops.EvictionSamples.push_back({static_cast<double>(Bytes), Ops});
}

void Translator::onSuperblockUnlink(
    std::span<const CodeCache::Resident> /*Victims*/,
    std::span<const uint32_t> Dangling) {
  for (uint32_t NumLinks : Dangling) {
    if (NumLinks == 0)
      continue;
    // Unlink cost (Equation 4's shape): back-pointer walk and patch.
    const double UnlinkOps = jittered(Config.Weights.UnlinkBase +
                                      Config.Weights.UnlinkPerLink * NumLinks);
    Stats.Ops.UnlinkOps += UnlinkOps;
    Stats.Ops.UnlinkSamples.push_back(
        {static_cast<double>(NumLinks), UnlinkOps});
  }
}

int32_t Translator::executeFragment(int32_t Slot) {
  Fragment &F = Fragments[static_cast<size_t>(Slot)];
  if (F.IsBasicBlock) {
    // The BB prologue bumps the trace-head counter (DynamoRIO's profile
    // counter). Crossing the threshold bails to the dispatcher, which
    // promotes the block into a superblock.
    CCSIM_ASSERT(F.EntryPC < HotCounter.size(), "BB entry outside image");
    Stats.Ops.CacheExecOps += 2.0; // Counter increment in the prologue.
    if (++HotCounter[F.EntryPC] >= Config.HotThreshold &&
        State.PC == F.EntryPC)
      return DispatchTable::NotFound;
  }
  ++F.Executions;
  if (Config.RecordTrace && !F.IsBasicBlock)
    RecordedAccesses.push_back(F.Id);

  for (size_t I = 0; I < F.Code.size(); ++I) {
    const Instruction &Inst = F.Code[I];
    const uint32_t PC = F.PCs[I];

    ++Stats.GuestInstructions;
    if (F.IsBasicBlock)
      ++Stats.BBInstructions;
    else
      ++Stats.CacheInstructions;
    Stats.Ops.CacheExecOps += Config.Weights.CacheExecPerGuestInstr;
    if (Budget)
      --Budget;

    const uint32_t Next = executeInstruction(Inst, PC, State);
    State.PC = Next;

    if (State.Halted)
      return DispatchTable::NotFound;

    const bool Terminal = (I + 1 == F.Code.size());
    if (!Terminal) {
      if (Next == F.PCs[I + 1])
        continue; // Still on the recorded path.
      CCSIM_ASSERT(Inst.isConditionalBranch(),
                   "only conditional branches may leave the recorded path");
      // Side exit: a direct (linkable) transfer off the hot path.
      return resolveDirectExit(Next);
    }

    // Terminal instruction.
    if (Inst.isIndirect()) {
      if (!Config.EnableChaining)
        return DispatchTable::NotFound;
      // Exit-stub inline cache (DynamoRIO 0.93-style indirect branch
      // handling): the stub remembers the last target. A monomorphic
      // return keeps hitting; a polymorphic one (function called from
      // alternating sites) installs the new target and falls back to the
      // dispatcher — even with chaining enabled. This is what keeps
      // call/return-heavy codes from enjoying the full chaining benefit.
      Stats.Ops.IblOps += Config.Weights.IblLookup;
      if (F.IndirectInlineTag != Next + 1) {
        F.IndirectInlineTag = Next + 1;
        ++Stats.IblMisses;
        return DispatchTable::NotFound;
      }
      bool InBBTier = false;
      const int32_t NextSlot = residentSlotFor(Next, InBBTier);
      if (NextSlot >= 0)
        ++Stats.IndirectTransfers;
      return NextSlot;
    }
    return resolveDirectExit(Next);
  }
  return DispatchTable::NotFound; // Not reached: last instr is terminal.
}

int32_t Translator::residentSlotFor(uint32_t TargetPC, bool &InBBTier) const {
  InBBTier = false;
  unsigned Probes = 0;
  const int32_t Slot = Table.lookup(TargetPC, Probes);
  if (Slot >= 0)
    return Slot;
  if (Config.UseBasicBlockCache) {
    const int32_t BBSlot = BBTable.lookup(TargetPC, Probes);
    if (BBSlot >= 0) {
      InBBTier = true;
      return BBSlot;
    }
  }
  return DispatchTable::NotFound;
}

int32_t Translator::resolveDirectExit(uint32_t TargetPC) {
  if (!Config.EnableChaining)
    return DispatchTable::NotFound;
  // A patched link is a plain jump: if the target fragment is resident
  // the transfer is free (links are kept consistent by the link graph).
  bool InBBTier = false;
  const int32_t Slot = residentSlotFor(TargetPC, InBBTier);
  if (Slot < 0)
    return DispatchTable::NotFound;
  ++(InBBTier ? Stats.BBLinkedTransfers : Stats.LinkedTransfers);
  return Slot;
}

const TranslatorStats &Translator::run(uint64_t MaxGuestInstructions) {
  Budget = MaxGuestInstructions;
  while (!State.Halted && Budget > 0) {
    // Control leaving the program image halts the guest, exactly like an
    // interpreter decode failure.
    if (State.PC >= Prog.size()) {
      State.Halted = true;
      break;
    }
    // Dispatcher entry (Figure 1): hash lookup, context switch, and (in a
    // self-protecting translator) memory protection changes.
    DispatchPC = State.PC;
    unsigned Probes = 0;
    int32_t Slot = Table.lookup(State.PC, Probes);
    chargeDispatch(Probes);

    if (Slot < 0) {
      const uint32_t PC = State.PC;
      CCSIM_ASSERT(PC < HotCounter.size(), "PC outside the program image");
      if (++HotCounter[PC] >= Config.HotThreshold) {
        buildAndInstallFragment();
        continue; // The recording already executed the path.
      }
      if (!Config.UseBasicBlockCache) {
        interpretBlock();
        continue;
      }
      // Two-tier mode: cold code runs from the basic-block cache.
      unsigned BBProbes = 0;
      Slot = BBTable.lookup(PC, BBProbes);
      Stats.Ops.DispatchOps += BBProbes * Config.Weights.PerProbe;
      if (Slot < 0) {
        buildAndInstallBasicBlock();
        continue; // The recording already executed the block.
      }
    }

    // Execute inside the cache until control must return to the
    // dispatcher (unlinked exit, IBL miss, halt, or budget).
    while (Slot >= 0 && !State.Halted && Budget > 0)
      Slot = executeFragment(Slot);
  }
  syncEngineStats();
  return Stats;
}

void Translator::syncEngineStats() {
  // The engines are the source of truth for eviction/link accounting;
  // plain assignments keep repeated run() calls idempotent.
  const CacheStats &ES = Engine.stats();
  Stats.EvictionInvocations = ES.EvictionInvocations;
  Stats.EvictedFragments = ES.EvictedBlocks;
  Stats.EvictedBytes = ES.EvictedBytes;
  Stats.UnlinkedLinks = ES.UnlinkedLinks;
  Stats.ChainStats.LinksCreated = ES.LinksCreated;
  Stats.ChainStats.InterUnitLinksCreated = ES.InterUnitLinksCreated;
  Stats.ChainStats.SelfLinksCreated = ES.SelfLinksCreated;
  const CacheStats &BS = BBEngine.stats();
  Stats.BBEvictionInvocations = BS.EvictionInvocations;
  Stats.BBEvictedFragments = BS.EvictedBlocks;
}

Trace Translator::exportTrace() const {
  CCSIM_ASSERT(Config.RecordTrace, "run was not recorded");
  Trace T;
  T.Name = "mini-dbt";

  // Densify: only superblocks that were actually built get trace ids.
  std::vector<int64_t> Remap(FirstBuildSize.size(), -1);
  for (SuperblockId Id = 0; Id < FirstBuildSize.size(); ++Id) {
    if (FirstBuildSize[Id] == 0)
      continue;
    Remap[Id] = static_cast<int64_t>(T.Blocks.size());
    SuperblockDef Def;
    Def.SizeBytes = FirstBuildSize[Id];
    T.Blocks.push_back(std::move(Def));
  }
  for (SuperblockId Id = 0; Id < FirstBuildSize.size(); ++Id) {
    if (Remap[Id] < 0)
      continue;
    SuperblockDef &Def = T.Blocks[static_cast<size_t>(Remap[Id])];
    for (SuperblockId Edge : FirstBuildEdges[Id])
      if (Edge < Remap.size() && Remap[Edge] >= 0)
        Def.OutEdges.push_back(static_cast<SuperblockId>(Remap[Edge]));
  }
  T.Accesses.reserve(RecordedAccesses.size());
  for (SuperblockId Id : RecordedAccesses) {
    CCSIM_ASSERT(Id < Remap.size() && Remap[Id] >= 0,
                 "recorded access to a never-built fragment");
    T.Accesses.push_back(static_cast<SuperblockId>(Remap[Id]));
  }
  CCSIM_ASSERT(T.validate(), "exported trace must be structurally valid");
  return T;
}

bool Translator::checkInvariants() const {
  // Cache/link structure lives in the engines; what remains here is the
  // dispatch-table consistency the check library audits as dispatch.*.
  if (!Engine.checkInvariants() || !BBEngine.checkInvariants())
    return false;
  if (!Table.checkInvariants() || !BBTable.checkInvariants())
    return false;
  if (Table.size() != Engine.cache().residentCount())
    return false;
  if (BBTable.size() != BBEngine.cache().residentCount())
    return false;
  // Every resident fragment is reachable through the table at its PC.
  bool Ok = true;
  Engine.cache().forEachResident([&](const CodeCache::Resident &R) {
    unsigned Probes = 0;
    const int32_t Slot = Table.lookup(PCById[R.Id], Probes);
    if (Slot < 0 || Fragments[static_cast<size_t>(Slot)].Id != R.Id)
      Ok = false;
  });
  return Ok;
}
