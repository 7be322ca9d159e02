#include "mcu/assembler.hh"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "sim/logging.hh"

namespace ulp::mcu {

std::size_t
Image::sizeBytes() const
{
    std::size_t total = 0;
    for (const ImageChunk &chunk : chunks)
        total += chunk.bytes.size();
    return total;
}

std::uint16_t
Image::symbol(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it == symbols.end())
        sim::fatal("image has no symbol '%s'", name.c_str());
    return it->second;
}

bool
Image::hasSymbol(const std::string &name) const
{
    return symbols.find(name) != symbols.end();
}

namespace {

struct Asm
{
    const std::map<std::string, std::uint16_t> *predefined;
    std::map<std::string, std::uint32_t> symbols;
    int lineNo = 0;

    /** Bindable parameters (none for plain assembly) and where their
     *  bytes landed. */
    std::span<const std::string> params;
    std::vector<ParamFixup> *fixups = nullptr;
    /** Index the chunk being emitted will have in Image::chunks. */
    std::size_t chunkIndex = 0;

    [[noreturn]] void
    error(const std::string &message) const
    {
        sim::fatal("asm line %d: %s", lineNo, message.c_str());
    }

    static std::string
    trim(const std::string &s)
    {
        std::size_t b = s.find_first_not_of(" \t\r");
        if (b == std::string::npos)
            return "";
        std::size_t e = s.find_last_not_of(" \t\r");
        return s.substr(b, e - b + 1);
    }

    static std::string
    lower(std::string s)
    {
        std::transform(s.begin(), s.end(), s.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return s;
    }

    /** Index of @p name in params, or -1 when it is not a parameter. */
    int
    paramIndex(const std::string &name) const
    {
        auto it = std::find(params.begin(), params.end(), name);
        return it == params.end() ? -1
                                  : static_cast<int>(it - params.begin());
    }

    bool
    isDefined(const std::string &name) const
    {
        return symbols.count(name) || predefined->count(name) ||
               paramIndex(name) >= 0;
    }

    bool
    lookupSymbol(const std::string &name, std::uint32_t &out) const
    {
        auto it = symbols.find(name);
        if (it != symbols.end()) {
            out = it->second;
            return true;
        }
        if (predefined) {
            auto pit = predefined->find(name);
            if (pit != predefined->end()) {
                out = pit->second;
                return true;
            }
        }
        if (paramIndex(name) >= 0)
            error("parameter '" + name + "' is only allowed as a whole "
                  "byte operand");
        return false;
    }

    /**
     * Evaluate an expression. In pass 1 (final == false) undefined symbols
     * evaluate to 0; pass 2 requires every symbol to resolve.
     */
    std::uint32_t
    evalExpr(const std::string &expr, bool final) const
    {
        std::string s = trim(expr);
        if (s.empty())
            error("empty expression");

        // Split on top-level + and - (not inside parentheses, not a
        // leading sign).
        int depth = 0;
        for (std::size_t i = s.size(); i-- > 1;) {
            char c = s[i];
            if (c == ')')
                ++depth;
            else if (c == '(')
                --depth;
            else if (depth == 0 && (c == '+' || c == '-')) {
                std::uint32_t lhs = evalExpr(s.substr(0, i), final);
                std::uint32_t rhs = evalExpr(s.substr(i + 1), final);
                return c == '+' ? lhs + rhs : lhs - rhs;
            }
        }

        return evalTerm(s, final);
    }

    std::uint32_t
    evalTerm(const std::string &term, bool final) const
    {
        std::string s = trim(term);
        std::string low = lower(s);

        if (low.size() > 4 && (low.rfind("lo(", 0) == 0) && s.back() == ')')
            return evalExpr(s.substr(3, s.size() - 4), final) & 0xFF;
        if (low.size() > 4 && (low.rfind("hi(", 0) == 0) && s.back() == ')')
            return (evalExpr(s.substr(3, s.size() - 4), final) >> 8) & 0xFF;
        if (s.front() == '(' && s.back() == ')')
            return evalExpr(s.substr(1, s.size() - 2), final);

        if (s.size() == 3 && s.front() == '\'' && s.back() == '\'')
            return static_cast<std::uint8_t>(s[1]);

        if (std::isdigit(static_cast<unsigned char>(s[0]))) {
            try {
                if (low.rfind("0x", 0) == 0)
                    return static_cast<std::uint32_t>(
                        std::stoul(s.substr(2), nullptr, 16));
                return static_cast<std::uint32_t>(std::stoul(s));
            } catch (const std::exception &) {
                error("bad numeric literal '" + s + "'");
            }
        }

        std::uint32_t value;
        if (lookupSymbol(s, value))
            return value;
        if (!final)
            return 0;
        error("undefined symbol '" + s + "'");
    }

    int
    parseReg(const std::string &token) const
    {
        std::string s = lower(trim(token));
        if (s.size() >= 2 && s[0] == 'r') {
            int n = -1;
            try {
                n = std::stoi(s.substr(1));
            } catch (const std::exception &) {
                n = -1;
            }
            if (n >= 0 && n <= 15)
                return n;
        }
        error("expected register r0..r15, got '" + token + "'");
    }

    int
    parsePair(const std::string &token) const
    {
        std::string s = lower(trim(token));
        if (s.size() >= 2 && s[0] == 'p') {
            int n = -1;
            try {
                n = std::stoi(s.substr(1));
            } catch (const std::exception &) {
                n = -1;
            }
            if (n >= 0 && n <= 7)
                return n;
        }
        error("expected pointer pair p0..p7, got '" + token + "'");
    }

    std::uint8_t
    byteValue(const std::string &expr, bool final) const
    {
        std::uint32_t v = evalExpr(expr, final);
        if (final && v > 0xFF)
            error("value " + std::to_string(v) + " does not fit in a byte");
        return static_cast<std::uint8_t>(v & 0xFF);
    }

    /** Emit a byte operand; a bare parameter name leaves a recorded
     *  hole instead of a value. */
    void
    emitByte(const std::string &expr, std::vector<std::uint8_t> &out)
    {
        int param = paramIndex(expr);
        if (param >= 0) {
            fixups->push_back({static_cast<std::size_t>(param), chunkIndex,
                               out.size()});
            out.push_back(0);
            return;
        }
        out.push_back(byteValue(expr, true));
    }

    std::uint16_t
    wordValue(const std::string &expr, bool final) const
    {
        std::uint32_t v = evalExpr(expr, final);
        if (final && v > 0xFFFF)
            error("value " + std::to_string(v) + " does not fit in a word");
        return static_cast<std::uint16_t>(v & 0xFFFF);
    }
};

struct Statement
{
    int lineNo;
    std::string label;
    std::string mnemonic; // empty for pure labels; starts with '.' for dirs
    std::vector<std::string> operands;
};

std::vector<Statement>
parse(const std::string &source, Asm &ctx)
{
    std::vector<Statement> statements;
    std::istringstream in(source);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        ctx.lineNo = line_no;

        std::size_t semi = line.find(';');
        if (semi != std::string::npos)
            line = line.substr(0, semi);
        line = Asm::trim(line);
        if (line.empty())
            continue;

        Statement st;
        st.lineNo = line_no;

        // Optional leading label. Avoid treating "lo(x):" style or
        // operands as labels: a label must be the first token and be
        // followed by ':'.
        std::size_t colon = line.find(':');
        if (colon != std::string::npos) {
            std::string head = Asm::trim(line.substr(0, colon));
            bool ident = !head.empty();
            for (char c : head) {
                if (!(std::isalnum(static_cast<unsigned char>(c)) ||
                      c == '_'))
                    ident = false;
            }
            if (ident) {
                st.label = head;
                line = Asm::trim(line.substr(colon + 1));
            }
        }

        if (!line.empty()) {
            std::size_t sp = line.find_first_of(" \t");
            st.mnemonic = (sp == std::string::npos)
                              ? line
                              : line.substr(0, sp);
            std::string rest =
                (sp == std::string::npos) ? "" : Asm::trim(line.substr(sp));
            // Split operands on top-level commas.
            int depth = 0;
            std::string cur;
            for (char c : rest) {
                if (c == '(')
                    ++depth;
                else if (c == ')')
                    --depth;
                if (c == ',' && depth == 0) {
                    st.operands.push_back(Asm::trim(cur));
                    cur.clear();
                } else {
                    cur += c;
                }
            }
            if (!Asm::trim(cur).empty())
                st.operands.push_back(Asm::trim(cur));
        }

        if (!st.label.empty() || !st.mnemonic.empty())
            statements.push_back(std::move(st));
    }
    return statements;
}

std::size_t
statementSize(const Statement &st, Asm &ctx)
{
    if (st.mnemonic.empty())
        return 0;
    std::string m = Asm::lower(st.mnemonic);
    if (m == ".org" || m == ".equ")
        return 0;
    if (m == ".byte")
        return st.operands.size();
    if (m == ".word")
        return st.operands.size() * 2;
    if (m == ".space") {
        if (st.operands.size() != 1)
            ctx.error(".space needs one operand");
        return ctx.evalExpr(st.operands[0], false);
    }
    const InstrInfo *info = instrInfoByMnemonic(st.mnemonic);
    if (!info)
        ctx.error("unknown mnemonic '" + st.mnemonic + "'");
    return info->lengthBytes;
}

void
encode(const Statement &st, const InstrInfo &info, Asm &ctx,
       std::vector<std::uint8_t> &out)
{
    auto need = [&](std::size_t n) {
        if (st.operands.size() != n) {
            ctx.error(std::string(info.mnemonic) + " expects " +
                      std::to_string(n) + " operand(s), got " +
                      std::to_string(st.operands.size()));
        }
    };

    out.push_back(static_cast<std::uint8_t>(info.opcode));
    switch (info.format) {
      case Format::None:
        need(0);
        break;
      case Format::Rd: {
        need(1);
        int rd = ctx.parseReg(st.operands[0]);
        out.push_back(static_cast<std::uint8_t>(rd << 4));
        break;
      }
      case Format::RdRs: {
        need(2);
        int rd = ctx.parseReg(st.operands[0]);
        int rs = ctx.parseReg(st.operands[1]);
        out.push_back(static_cast<std::uint8_t>((rd << 4) | rs));
        break;
      }
      case Format::RdImm: {
        need(2);
        int rd = ctx.parseReg(st.operands[0]);
        out.push_back(static_cast<std::uint8_t>(rd << 4));
        ctx.emitByte(st.operands[1], out);
        break;
      }
      case Format::RdAddr: {
        need(2);
        int rd = ctx.parseReg(st.operands[0]);
        std::uint16_t addr = ctx.wordValue(st.operands[1], true);
        out.push_back(static_cast<std::uint8_t>(rd << 4));
        out.push_back(static_cast<std::uint8_t>(addr >> 8));
        out.push_back(static_cast<std::uint8_t>(addr & 0xFF));
        break;
      }
      case Format::AddrRs: {
        need(2);
        std::uint16_t addr = ctx.wordValue(st.operands[0], true);
        int rs = ctx.parseReg(st.operands[1]);
        out.push_back(static_cast<std::uint8_t>(rs << 4));
        out.push_back(static_cast<std::uint8_t>(addr >> 8));
        out.push_back(static_cast<std::uint8_t>(addr & 0xFF));
        break;
      }
      case Format::RdPair: {
        need(2);
        int rd = ctx.parseReg(st.operands[0]);
        int pn = ctx.parsePair(st.operands[1]);
        out.push_back(static_cast<std::uint8_t>((rd << 4) | pn));
        break;
      }
      case Format::PairRs: {
        need(2);
        int pn = ctx.parsePair(st.operands[0]);
        int rs = ctx.parseReg(st.operands[1]);
        out.push_back(static_cast<std::uint8_t>((pn << 4) | rs));
        break;
      }
      case Format::PairAddr: {
        need(2);
        int pn = ctx.parsePair(st.operands[0]);
        std::uint16_t addr = ctx.wordValue(st.operands[1], true);
        out.push_back(static_cast<std::uint8_t>(pn << 4));
        out.push_back(static_cast<std::uint8_t>(addr >> 8));
        out.push_back(static_cast<std::uint8_t>(addr & 0xFF));
        break;
      }
      case Format::Pair: {
        need(1);
        int pn = ctx.parsePair(st.operands[0]);
        out.push_back(static_cast<std::uint8_t>(pn << 4));
        break;
      }
      case Format::Addr: {
        need(1);
        std::uint16_t addr = ctx.wordValue(st.operands[0], true);
        out.push_back(static_cast<std::uint8_t>(addr >> 8));
        out.push_back(static_cast<std::uint8_t>(addr & 0xFF));
        break;
      }
      case Format::Imm: {
        need(1);
        ctx.emitByte(st.operands[0], out);
        break;
      }
    }
}

/** Both passes over @p source with @p ctx's symbol sources. */
Image
assemble(Asm &ctx, const std::string &source)
{
    std::vector<Statement> statements = parse(source, ctx);

    // Pass 1: assign label addresses and .equ symbols.
    std::uint32_t loc = 0;
    for (const Statement &st : statements) {
        ctx.lineNo = st.lineNo;
        if (!st.label.empty()) {
            if (ctx.isDefined(st.label))
                ctx.error("duplicate symbol '" + st.label + "'");
            ctx.symbols[st.label] = loc;
        }
        if (st.mnemonic.empty())
            continue;
        std::string m = Asm::lower(st.mnemonic);
        if (m == ".org") {
            if (st.operands.size() != 1)
                ctx.error(".org needs one operand");
            loc = ctx.evalExpr(st.operands[0], false);
        } else if (m == ".equ") {
            if (st.operands.size() != 2)
                ctx.error(".equ needs NAME, VALUE");
            const std::string &name = st.operands[0];
            if (ctx.isDefined(name))
                ctx.error("duplicate symbol '" + name + "'");
            ctx.symbols[name] = ctx.evalExpr(st.operands[1], false);
        } else {
            loc += statementSize(st, ctx);
        }
        if (loc > 0x10000)
            ctx.error("location counter beyond 64 KiB");
    }

    // Pass 2: emit.
    Image image;
    ImageChunk chunk;
    loc = 0;
    chunk.base = 0;
    auto flush = [&]() {
        if (!chunk.bytes.empty()) {
            image.chunks.push_back(std::move(chunk));
            chunk = ImageChunk{};
        }
    };

    for (const Statement &st : statements) {
        ctx.lineNo = st.lineNo;
        if (st.mnemonic.empty())
            continue;
        ctx.chunkIndex = image.chunks.size();
        std::string m = Asm::lower(st.mnemonic);
        if (m == ".org") {
            flush();
            loc = ctx.evalExpr(st.operands[0], true);
            chunk.base = static_cast<std::uint16_t>(loc);
            continue;
        }
        if (m == ".equ") {
            // Re-evaluate with full symbol table so forward references in
            // .equ values resolve.
            ctx.symbols[st.operands[0]] =
                ctx.evalExpr(st.operands[1], true);
            continue;
        }
        if (m == ".byte") {
            for (const std::string &op : st.operands)
                ctx.emitByte(op, chunk.bytes);
            loc += st.operands.size();
            continue;
        }
        if (m == ".word") {
            for (const std::string &op : st.operands) {
                std::uint16_t v = ctx.wordValue(op, true);
                chunk.bytes.push_back(static_cast<std::uint8_t>(v >> 8));
                chunk.bytes.push_back(static_cast<std::uint8_t>(v & 0xFF));
            }
            loc += st.operands.size() * 2;
            continue;
        }
        if (m == ".space") {
            std::uint32_t n = ctx.evalExpr(st.operands[0], true);
            chunk.bytes.insert(chunk.bytes.end(), n, 0);
            loc += n;
            continue;
        }
        const InstrInfo *info = instrInfoByMnemonic(st.mnemonic);
        if (!info)
            ctx.error("unknown mnemonic '" + st.mnemonic + "'");
        encode(st, *info, ctx, chunk.bytes);
        loc += info->lengthBytes;
    }
    flush();

    for (const auto &[name, value] : ctx.symbols) {
        if (value > 0xFFFF)
            continue; // wide .equ constants are fine internally
        image.symbols[name] = static_cast<std::uint16_t>(value);
    }
    return image;
}

} // namespace

Image
assemble(const std::string &source,
         const std::map<std::string, std::uint16_t> &predefined)
{
    Asm ctx;
    ctx.predefined = &predefined;
    return assemble(ctx, source);
}

Image
assemble(const std::string &source,
         const std::map<std::string, std::uint16_t> &predefined,
         std::span<const std::string> params,
         std::vector<ParamFixup> &fixups)
{
    Asm ctx;
    ctx.predefined = &predefined;
    ctx.params = params;
    ctx.fixups = &fixups;
    return assemble(ctx, source);
}

std::string
disassemble(const std::uint8_t *bytes, std::size_t available)
{
    if (available == 0)
        return "<empty>";
    const InstrInfo *info = instrInfo(static_cast<Opcode>(bytes[0]));
    if (!info)
        return sim::csprintf("<bad opcode %#04x>", bytes[0]);
    if (available < info->lengthBytes)
        return sim::csprintf("<truncated %s>", info->mnemonic);

    auto rd = [&] { return (bytes[1] >> 4) & 0xF; };
    auto rs = [&] { return bytes[1] & 0xF; };
    auto addr_at = [&](int i) {
        return (static_cast<unsigned>(bytes[i]) << 8) | bytes[i + 1];
    };

    switch (info->format) {
      case Format::None:
        return info->mnemonic;
      case Format::Rd:
        return sim::csprintf("%s r%d", info->mnemonic, rd());
      case Format::RdRs:
        return sim::csprintf("%s r%d, r%d", info->mnemonic, rd(), rs());
      case Format::RdImm:
        return sim::csprintf("%s r%d, %#04x", info->mnemonic, rd(),
                             bytes[2]);
      case Format::RdAddr:
        return sim::csprintf("%s r%d, %#06x", info->mnemonic, rd(),
                             addr_at(2));
      case Format::AddrRs:
        return sim::csprintf("%s %#06x, r%d", info->mnemonic, addr_at(2),
                             rd());
      case Format::RdPair:
        return sim::csprintf("%s r%d, p%d", info->mnemonic, rd(), rs());
      case Format::PairRs:
        return sim::csprintf("%s p%d, r%d", info->mnemonic, rd(), rs());
      case Format::PairAddr:
        return sim::csprintf("%s p%d, %#06x", info->mnemonic, rd(),
                             addr_at(2));
      case Format::Pair:
        return sim::csprintf("%s p%d", info->mnemonic, rd());
      case Format::Addr:
        return sim::csprintf("%s %#06x", info->mnemonic, addr_at(1));
      case Format::Imm:
        return sim::csprintf("%s %#04x", info->mnemonic, bytes[1]);
    }
    return "<unreachable>";
}

} // namespace ulp::mcu
