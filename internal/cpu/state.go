// Package cpu executes ARMlet programs: functionally (architectural
// state, for correctness tests and compiler validation) and with an
// "A9-lite" timing model (for the paper's performance experiments).
//
// The timing model stands in for gem5's detailed ARM CPU: an in-order,
// dual-issue core with scoreboarded register dependences, multi-cycle
// functional units, a 2-bit branch predictor with a fixed mispredict
// penalty, non-blocking loads (hit-under-miss through the DL1 front-end),
// a small draining store buffer, and per-instruction instruction fetch
// through the IL1. It attributes every stall cycle to a cause — load
// latency, store-buffer pressure, branch mispredicts, fetch — which is
// what the paper's Fig. 4 read/write penalty breakdown needs.
package cpu

import (
	"encoding/binary"
	"fmt"
	"math"

	"sttdl1/internal/isa"
)

// Fault describes a functional execution error (bad memory access,
// division by zero, illegal instruction, runaway loop).
type Fault struct {
	PC int
	// Inst is the faulting instruction. The zero Inst means none is
	// known (an instruction budget runs out between instructions), and
	// Error leaves it out.
	Inst isa.Inst
	Msg  string
}

func (f *Fault) Error() string {
	if f.Inst == (isa.Inst{}) {
		return fmt.Sprintf("cpu: fault at pc=%d: %s", f.PC, f.Msg)
	}
	return fmt.Sprintf("cpu: fault at pc=%d (%s): %s", f.PC, f.Inst, f.Msg)
}

// State is the architectural state of one ARMlet core plus its flat
// functional data memory.
type State struct {
	R   [isa.NumIntRegs]int32
	F   [isa.NumFPRegs]float32
	V   [isa.NumVecRegs][isa.VecLanes]float32
	PC  int
	Mem []byte

	Halted bool
}

// StackBytes is the stack region appended above the data segment.
const StackBytes = 64 << 10

// NewState prepares architectural state for prog: a zeroed data segment
// of prog.DataSize bytes with a stack above it, SP at the top.
func NewState(prog *isa.Program) *State {
	s := &State{Mem: make([]byte, prog.DataSize+StackBytes)}
	s.R[isa.SP] = int32(len(s.Mem))
	return s
}

func (s *State) fault(pc int, in isa.Inst, format string, args ...any) *Fault {
	return &Fault{PC: pc, Inst: in, Msg: fmt.Sprintf(format, args...)}
}

func (s *State) getR(r isa.Reg) int32 {
	if r == isa.ZR {
		return 0
	}
	return s.R[r]
}

func (s *State) setR(r isa.Reg, v int32) {
	if r != isa.ZR {
		s.R[r] = v
	}
}

// loadWord/storeWord access the functional memory; addresses are byte
// addresses, little-endian.
func (s *State) loadWord(addr uint32) (uint32, bool) {
	if int(addr)+4 > len(s.Mem) || int(addr) < 0 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(s.Mem[addr:]), true
}

func (s *State) storeWord(addr, v uint32) bool {
	if int(addr)+4 > len(s.Mem) {
		return false
	}
	binary.LittleEndian.PutUint32(s.Mem[addr:], v)
	return true
}

// EffAddr computes the effective address of a memory instruction.
func (s *State) EffAddr(in isa.Inst) uint32 {
	switch in.Op.Info().Fmt {
	case isa.FmtMemX:
		return uint32(s.getR(in.Ra)) + uint32(s.getR(in.Rb))<<uint(in.Imm&31)
	default: // FmtMem, FmtPLD
		return uint32(s.getR(in.Ra) + in.Imm)
	}
}

// StepInfo reports what one functional step did, for the timing model.
type StepInfo struct {
	// Taken reports whether a branch redirected control flow.
	Taken bool
	// NextPC is the PC after the instruction.
	NextPC int
	// Addr is the effective address of a memory instruction.
	Addr uint32
}

// Step executes the instruction at s.PC functionally and advances PC.
// It returns what happened so a timing model can charge for it.
func (s *State) Step(prog *isa.Program) (StepInfo, error) {
	pc := s.PC
	if pc < 0 || pc >= len(prog.Insts) {
		return StepInfo{}, s.fault(pc, isa.Inst{}, "pc outside program (0..%d)", len(prog.Insts)-1)
	}
	in := prog.Insts[pc]
	info := StepInfo{NextPC: pc + 1}

	switch in.Op {
	case isa.OpADD:
		s.setR(in.Rd, s.getR(in.Ra)+s.getR(in.Rb))
	case isa.OpSUB:
		s.setR(in.Rd, s.getR(in.Ra)-s.getR(in.Rb))
	case isa.OpMUL:
		s.setR(in.Rd, s.getR(in.Ra)*s.getR(in.Rb))
	case isa.OpDIV:
		if s.getR(in.Rb) == 0 {
			return info, s.fault(pc, in, "integer division by zero")
		}
		s.setR(in.Rd, s.getR(in.Ra)/s.getR(in.Rb))
	case isa.OpREM:
		if s.getR(in.Rb) == 0 {
			return info, s.fault(pc, in, "integer remainder by zero")
		}
		s.setR(in.Rd, s.getR(in.Ra)%s.getR(in.Rb))
	case isa.OpAND:
		s.setR(in.Rd, s.getR(in.Ra)&s.getR(in.Rb))
	case isa.OpORR:
		s.setR(in.Rd, s.getR(in.Ra)|s.getR(in.Rb))
	case isa.OpEOR:
		s.setR(in.Rd, s.getR(in.Ra)^s.getR(in.Rb))
	case isa.OpLSL:
		s.setR(in.Rd, s.getR(in.Ra)<<uint(s.getR(in.Rb)&31))
	case isa.OpLSR:
		s.setR(in.Rd, int32(uint32(s.getR(in.Ra))>>uint(s.getR(in.Rb)&31)))
	case isa.OpASR:
		s.setR(in.Rd, s.getR(in.Ra)>>uint(s.getR(in.Rb)&31))

	case isa.OpADDI:
		s.setR(in.Rd, s.getR(in.Ra)+in.Imm)
	case isa.OpSUBI:
		s.setR(in.Rd, s.getR(in.Ra)-in.Imm)
	case isa.OpMULI:
		s.setR(in.Rd, s.getR(in.Ra)*in.Imm)
	case isa.OpANDI:
		s.setR(in.Rd, s.getR(in.Ra)&in.Imm)
	case isa.OpORRI:
		s.setR(in.Rd, s.getR(in.Ra)|in.Imm)
	case isa.OpEORI:
		s.setR(in.Rd, s.getR(in.Ra)^in.Imm)
	case isa.OpLSLI:
		s.setR(in.Rd, s.getR(in.Ra)<<uint(in.Imm&31))
	case isa.OpLSRI:
		s.setR(in.Rd, int32(uint32(s.getR(in.Ra))>>uint(in.Imm&31)))
	case isa.OpASRI:
		s.setR(in.Rd, s.getR(in.Ra)>>uint(in.Imm&31))
	case isa.OpMOVI:
		s.setR(in.Rd, in.Imm)

	case isa.OpSLT:
		s.setR(in.Rd, b2i(s.getR(in.Ra) < s.getR(in.Rb)))
	case isa.OpSLTU:
		s.setR(in.Rd, b2i(uint32(s.getR(in.Ra)) < uint32(s.getR(in.Rb))))
	case isa.OpSLTI:
		s.setR(in.Rd, b2i(s.getR(in.Ra) < in.Imm))
	case isa.OpSEQ:
		s.setR(in.Rd, b2i(s.getR(in.Ra) == s.getR(in.Rb)))
	case isa.OpSNE:
		s.setR(in.Rd, b2i(s.getR(in.Ra) != s.getR(in.Rb)))
	case isa.OpSEL:
		if s.getR(in.Ra) != 0 {
			s.setR(in.Rd, s.getR(in.Rb))
		}

	case isa.OpFADD:
		s.F[in.Rd] = s.F[in.Ra] + s.F[in.Rb]
	case isa.OpFSUB:
		s.F[in.Rd] = s.F[in.Ra] - s.F[in.Rb]
	case isa.OpFMUL:
		s.F[in.Rd] = s.F[in.Ra] * s.F[in.Rb]
	case isa.OpFDIV:
		s.F[in.Rd] = s.F[in.Ra] / s.F[in.Rb]
	case isa.OpFNEG:
		s.F[in.Rd] = -s.F[in.Ra]
	case isa.OpFABS:
		s.F[in.Rd] = float32(math.Abs(float64(s.F[in.Ra])))
	case isa.OpFMAX:
		s.F[in.Rd] = f32max(s.F[in.Ra], s.F[in.Rb])
	case isa.OpFMIN:
		s.F[in.Rd] = f32min(s.F[in.Ra], s.F[in.Rb])
	case isa.OpFMOV:
		s.F[in.Rd] = s.F[in.Ra]
	case isa.OpFMOVI:
		s.F[in.Rd] = isa.F32FromBits(in.Imm)
	case isa.OpFCVT:
		s.F[in.Rd] = float32(s.getR(in.Ra))
	case isa.OpFTOI:
		s.setR(in.Rd, int32(s.F[in.Ra]))
	case isa.OpFSLT:
		s.setR(in.Rd, b2i(s.F[in.Ra] < s.F[in.Rb]))
	case isa.OpFSLE:
		s.setR(in.Rd, b2i(s.F[in.Ra] <= s.F[in.Rb]))
	case isa.OpFSEQ:
		s.setR(in.Rd, b2i(s.F[in.Ra] == s.F[in.Rb]))
	case isa.OpFSEL:
		if s.getR(in.Ra) != 0 {
			s.F[in.Rd] = s.F[in.Rb]
		}

	case isa.OpVADD:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = s.V[in.Ra][l] + s.V[in.Rb][l]
		}
	case isa.OpVSUB:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = s.V[in.Ra][l] - s.V[in.Rb][l]
		}
	case isa.OpVMUL:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = s.V[in.Ra][l] * s.V[in.Rb][l]
		}
	case isa.OpVDIV:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = s.V[in.Ra][l] / s.V[in.Rb][l]
		}
	case isa.OpVFMA:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] += s.V[in.Ra][l] * s.V[in.Rb][l]
		}
	case isa.OpVMIN:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = f32min(s.V[in.Ra][l], s.V[in.Rb][l])
		}
	case isa.OpVMAX:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = f32max(s.V[in.Ra][l], s.V[in.Rb][l])
		}
	case isa.OpVMOV:
		s.V[in.Rd] = s.V[in.Ra]
	case isa.OpVSPLAT:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = s.F[in.Ra]
		}
	case isa.OpVSUM:
		s.F[in.Rd] = s.V[in.Ra][0] + s.V[in.Ra][1] + s.V[in.Ra][2] + s.V[in.Ra][3]
	case isa.OpVSEL:
		if s.getR(in.Ra) != 0 {
			s.V[in.Rd] = s.V[in.Rb]
		}
	case isa.OpVCLT:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = b2f(s.V[in.Ra][l] < s.V[in.Rb][l])
		}
	case isa.OpVCLE:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = b2f(s.V[in.Ra][l] <= s.V[in.Rb][l])
		}
	case isa.OpVCEQ:
		for l := 0; l < isa.VecLanes; l++ {
			s.V[in.Rd][l] = b2f(s.V[in.Ra][l] == s.V[in.Rb][l])
		}
	case isa.OpVSELM:
		for l := 0; l < isa.VecLanes; l++ {
			if s.V[in.Ra][l] != 0 {
				s.V[in.Rd][l] = s.V[in.Rb][l]
			}
		}

	case isa.OpLDR, isa.OpLDRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		v, ok := s.loadWord(addr)
		if !ok {
			return info, s.fault(pc, in, "load outside memory: addr=%#x size=%d", addr, len(s.Mem))
		}
		s.setR(in.Rd, int32(v))
	case isa.OpSTR, isa.OpSTRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		if !s.storeWord(addr, uint32(s.getR(in.Rd))) {
			return info, s.fault(pc, in, "store outside memory: addr=%#x size=%d", addr, len(s.Mem))
		}
	case isa.OpFLDR, isa.OpFLDRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		v, ok := s.loadWord(addr)
		if !ok {
			return info, s.fault(pc, in, "fp load outside memory: addr=%#x size=%d", addr, len(s.Mem))
		}
		s.F[in.Rd] = math.Float32frombits(v)
	case isa.OpFSTR, isa.OpFSTRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		if !s.storeWord(addr, math.Float32bits(s.F[in.Rd])) {
			return info, s.fault(pc, in, "fp store outside memory: addr=%#x size=%d", addr, len(s.Mem))
		}
	case isa.OpVLDR, isa.OpVLDRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		for l := 0; l < isa.VecLanes; l++ {
			v, ok := s.loadWord(addr + uint32(4*l))
			if !ok {
				return info, s.fault(pc, in, "vector load outside memory: addr=%#x size=%d", addr, len(s.Mem))
			}
			s.V[in.Rd][l] = math.Float32frombits(v)
		}
	case isa.OpVSTR, isa.OpVSTRX:
		addr := s.EffAddr(in)
		info.Addr = addr
		for l := 0; l < isa.VecLanes; l++ {
			if !s.storeWord(addr+uint32(4*l), math.Float32bits(s.V[in.Rd][l])) {
				return info, s.fault(pc, in, "vector store outside memory: addr=%#x size=%d", addr, len(s.Mem))
			}
		}
	case isa.OpPLD:
		info.Addr = s.EffAddr(in) // prefetches never fault

	case isa.OpB:
		info.Taken = true
		info.NextPC = in.BranchTarget(pc)
	case isa.OpBEQ:
		if s.getR(in.Ra) == s.getR(in.Rb) {
			info.Taken = true
			info.NextPC = in.BranchTarget(pc)
		}
	case isa.OpBNE:
		if s.getR(in.Ra) != s.getR(in.Rb) {
			info.Taken = true
			info.NextPC = in.BranchTarget(pc)
		}
	case isa.OpBLT:
		if s.getR(in.Ra) < s.getR(in.Rb) {
			info.Taken = true
			info.NextPC = in.BranchTarget(pc)
		}
	case isa.OpBGE:
		if s.getR(in.Ra) >= s.getR(in.Rb) {
			info.Taken = true
			info.NextPC = in.BranchTarget(pc)
		}
	case isa.OpBL:
		s.setR(isa.LR, int32(pc+1))
		info.Taken = true
		info.NextPC = in.BranchTarget(pc)
	case isa.OpJR:
		info.Taken = true
		info.NextPC = int(s.getR(in.Ra))
	case isa.OpNOP:
	case isa.OpHALT:
		s.Halted = true
	default:
		return info, s.fault(pc, in, "illegal opcode")
	}

	s.PC = info.NextPC
	return info, nil
}

func b2f(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

func f32max(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}

func f32min(a, b float32) float32 {
	if a < b {
		return a
	}
	return b
}

// Interpret runs prog functionally (no timing) until HALT or maxInsts,
// returning the final state. Used by compiler semantic-preservation tests
// and by the reference checks in polybench.
func Interpret(prog *isa.Program, maxInsts uint64) (*State, error) {
	return InterpretState(prog, NewState(prog), maxInsts)
}

// InterpretState is Interpret starting from a caller-initialized state.
func InterpretState(prog *isa.Program, s *State, maxInsts uint64) (*State, error) {
	var n uint64
	for !s.Halted {
		if n >= maxInsts {
			return s, s.fault(s.PC, isa.Inst{}, "instruction budget %d exhausted (runaway loop?)", maxInsts)
		}
		if _, err := s.Step(prog); err != nil {
			return s, err
		}
		n++
	}
	return s, nil
}
