#include "sim/stats.hh"

#include <charconv>

namespace ulp::sim::stats {

Info::Info(Group *parent, Literal name, Literal desc, Kind kind)
    : _name(name.view().data()), _desc(desc.view().data()),
      _nameSize(static_cast<std::uint16_t>(name.view().size())),
      _descSize(static_cast<std::uint16_t>(desc.view().size())),
      _kind(kind)
{
    if (!parent)
        return;
    if (parent->_lastStat)
        parent->_lastStat->_next = this;
    else
        parent->_firstStat = this;
    parent->_lastStat = this;
}

Group::Group(Group *parent, std::string name)
    : _groupName(std::move(name)), _parent(parent)
{
    if (!parent)
        return;
    _prevSibling = parent->_lastChild;
    if (_prevSibling)
        _prevSibling->_nextSibling = this;
    else
        parent->_firstChild = this;
    parent->_lastChild = this;
}

Group::~Group()
{
    if (_prevSibling)
        _prevSibling->_nextSibling = _nextSibling;
    else if (_parent)
        _parent->_firstChild = _nextSibling;
    if (_nextSibling)
        _nextSibling->_prevSibling = _prevSibling;
    else if (_parent)
        _parent->_lastChild = _prevSibling;
    // Children that outlive this group become roots of their own trees.
    // They stay linked to each other, so one that dies later still
    // unlinks itself from its live siblings.
    for (Group *child = _firstChild; child; child = child->_nextSibling)
        child->_parent = nullptr;
}

void
Group::resetStats()
{
    for (Info *info = _firstStat; info; info = info->_next) {
        if (info->kind() == Info::Kind::Scalar)
            static_cast<Scalar *>(info)->reset();
        else if (info->kind() == Info::Kind::Distribution)
            static_cast<Distribution *>(info)->reset();
    }
    for (Group *child = _firstChild; child; child = child->_nextSibling)
        child->resetStats();
}

Info *
Group::findStat(std::string_view name) const
{
    for (Info *info = _firstStat; info; info = info->_next) {
        if (info->name() == name)
            return info;
    }
    return nullptr;
}

Group *
Group::findChild(std::string_view name) const
{
    for (Group *child = _firstChild; child; child = child->_nextSibling) {
        if (child->groupName() == name)
            return child;
    }
    return nullptr;
}

void
Group::mergeFrom(const Group &other)
{
    for (Info *info = _firstStat; info; info = info->_next) {
        const Info *src = other.findStat(info->name());
        if (!src || src->kind() != info->kind())
            continue;
        if (info->kind() == Info::Kind::Scalar) {
            *static_cast<Scalar *>(info) +=
                static_cast<const Scalar *>(src)->value();
        } else if (info->kind() == Info::Kind::Distribution) {
            static_cast<Distribution *>(info)->merge(
                *static_cast<const Distribution *>(src));
        }
    }
    for (Group *child = _firstChild; child; child = child->_nextSibling) {
        if (const Group *src = other.findChild(child->groupName()))
            child->mergeFrom(*src);
    }
}

void
Group::printStats(std::ostream &os) const
{
    Dump out(os);
    out.group(*this);
}

namespace {

/** Write chunks at least this large; the last one may be shorter. */
constexpr std::size_t chunkBytes = 64 * 1024;

} // namespace

Dump::Dump(std::ostream &os) : os(os)
{
    buf.reserve(chunkBytes + 1024);
}

Dump::~Dump()
{
    flush();
}

void
Dump::flush()
{
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    buf.clear();
}

void
Dump::group(const Group &group)
{
    const std::size_t outer = prefix.size();
    if (!group._groupName.empty()) {
        if (outer)
            prefix += '.';
        prefix += group._groupName;
    }
    for (const Info *info = group._firstStat; info; info = info->_next)
        stat(*info);
    for (const Group *child = group._firstChild; child;
         child = child->_nextSibling)
        this->group(*child);
    prefix.resize(outer);
}

void
Dump::stat(const Info &info)
{
    switch (info.kind()) {
      case Info::Kind::Scalar:
        line(prefix, info.name(), "",
             static_cast<const Scalar &>(info).value(), info.desc());
        break;
      case Info::Kind::Formula:
        line(prefix, info.name(), "",
             static_cast<const Formula &>(info).value(), info.desc());
        break;
      case Info::Kind::Distribution: {
        const auto &d = static_cast<const Distribution &>(info);
        line(prefix, info.name(), ".count", static_cast<double>(d.count()),
             info.desc());
        line(prefix, info.name(), ".mean", d.mean(), info.desc());
        line(prefix, info.name(), ".min", d.min(), info.desc());
        line(prefix, info.name(), ".max", d.max(), info.desc());
        line(prefix, info.name(), ".stddev", d.stddev(), info.desc());
        break;
      }
    }
}

void
Dump::line(std::string_view prefix, std::string_view name,
           std::string_view suffix, double value, std::string_view desc)
{
    constexpr std::size_t nameWidth = 44;
    constexpr std::size_t valueWidth = 16;

    std::size_t width = name.size() + suffix.size();
    if (!prefix.empty()) {
        buf.append(prefix);
        buf += '.';
        width += prefix.size() + 1;
    }
    buf.append(name);
    buf.append(suffix);
    if (width < nameWidth)
        buf.append(nameWidth - width, ' ');
    buf += ' ';

    // "%g" at precision 6: what an ostream prints for a double by default.
    char text[32];
    const std::size_t size = static_cast<std::size_t>(
        std::to_chars(text, text + sizeof text, value,
                      std::chars_format::general, 6).ptr - text);
    if (size < valueWidth)
        buf.append(valueWidth - size, ' ');
    buf.append(text, size);

    buf.append("  # ");
    buf.append(desc);
    buf += '\n';
    if (buf.size() >= chunkBytes)
        flush();
}

} // namespace ulp::sim::stats
